"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib
import random
import sys

import pytest
from hypothesis import settings

# Make tests/helpers.py importable from test files in subdirectories.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.dataset import Dataset  # noqa: E402
from helpers import FUZZ_LONG, random_dataset  # noqa: E402

# The long fuzz job (``--hypothesis-profile fuzz-long``, a CI job outside
# tier-1): tests whose settings come from ``helpers.fuzz_settings`` run
# unseeded at ten times their tier-1 examples and steps, and a failure
# prints the blob that replays it.  Every other test keeps its settings.
settings.register_profile(FUZZ_LONG, print_blob=True)


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_dataset(rng):
    """60 objects, 2-D, vocabulary of 8."""
    return random_dataset(rng, 60)


@pytest.fixture
def tiny_dataset():
    """A fixed 4-object dataset for hand-checked expectations."""
    return Dataset.from_points(
        [(1.0, 1.0), (2.0, 5.0), (6.0, 3.0), (8.0, 8.0)],
        [{1, 2}, {1, 3}, {2, 3}, {1, 2, 3}],
    )
