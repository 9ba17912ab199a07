"""Shared dataset builders and fuzz settings used across test modules."""

from __future__ import annotations

import random

from hypothesis import settings

from repro.dataset import Dataset, make_objects

#: The long fuzz job's Hypothesis profile (registered in ``conftest.py``,
#: selected with ``--hypothesis-profile fuzz-long``).
FUZZ_LONG = "fuzz-long"

#: How many times its tier-1 examples and steps a fuzz test runs under
#: :data:`FUZZ_LONG`.
FUZZ_LONG_SCALE = 10


def fuzz_settings(**tier1) -> settings:
    """``settings(**tier1)``; under the :data:`FUZZ_LONG` profile the same
    settings unseeded, at :data:`FUZZ_LONG_SCALE` times their examples and
    stateful steps.  Tier-1 runs exactly ``tier1``."""
    chosen = settings(**tier1)
    if settings.default is not settings.get_profile(FUZZ_LONG):
        return chosen
    return settings(
        chosen,
        derandomize=False,
        max_examples=FUZZ_LONG_SCALE * chosen.max_examples,
        stateful_step_count=FUZZ_LONG_SCALE * chosen.stateful_step_count,
    )


def random_dataset(
    rng: random.Random,
    num_objects: int,
    dim: int = 2,
    vocabulary: int = 8,
    doc_max: int = 4,
    integer_coords: bool = False,
    coord_range: float = 10.0,
) -> Dataset:
    """Small random dataset for brute-force comparison tests."""
    points = []
    docs = []
    for _ in range(num_objects):
        if integer_coords:
            points.append(
                tuple(float(rng.randint(0, int(coord_range))) for _ in range(dim))
            )
        else:
            points.append(tuple(rng.uniform(0.0, coord_range) for _ in range(dim)))
        docs.append(rng.sample(range(1, vocabulary + 1), rng.randint(1, doc_max)))
    return Dataset(make_objects(points, docs))


def duplicate_heavy_dataset(rng: random.Random, num_objects: int, dim: int = 2) -> Dataset:
    """Dataset with many coincident points (degenerate positions)."""
    points = []
    docs = []
    for _ in range(num_objects):
        if rng.random() < 0.5:
            points.append(tuple(float(rng.randint(0, 3)) for _ in range(dim)))
        else:
            points.append(tuple(rng.uniform(0.0, 4.0) for _ in range(dim)))
        docs.append(rng.sample(range(1, 7), rng.randint(1, 3)))
    return Dataset(make_objects(points, docs))
