"""Adversarial draws for the backend oracle: small corpora built to sit on
the boundaries the vectorized paths must classify exactly as the scalar
paths do.

The drawn corpora hold duplicate points, points on one line, coordinates
from 1e-6 to 1e6, one-word and ``max_k``-word documents, and sparse object
ids in a drawn order, so that, as in a shard, a position in
``dataset.objects`` is not an id.  The drawn rectangles put their sides on
data coordinates (so on kd split values and rank-space boundaries) or give
them zero width.  For each of the three strategies the numpy backend
serves — keywords-only, structured-only and fused — the vectorized path
must return the scalar path's ids in its order with its cost snapshot,
unbudgeted and at a drawn budget, raised snapshots included.

Tier-1 runs the property derandomized; the ``fuzz-long`` CI job runs it
unseeded at ten times the examples (``helpers.fuzz_settings``).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.baselines import StructuredOnlyIndex
from repro.core.multi_k import MultiKOrpIndex
from repro.costmodel import CostCounter
from repro.dataset import Dataset, KeywordObject
from repro.errors import BudgetExceeded
from repro.fast import VectorizedBackend
from repro.geometry.rectangles import Rect

from helpers import fuzz_settings

MAX_K = 3
VOCABULARY = 4
#: One keyword no document holds.
ABSENT = VOCABULARY + 1

magnitudes = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def corpora(draw):
    """A small corpus whose coordinates repeat: each axis draws from a
    handful of values, so points coincide and share kd split values; with
    ``line`` every point also shares its first coordinate.  The object ids
    are sparse (multiples of 7) in a drawn permutation."""
    dim = draw(st.integers(1, 3), label="dim")
    values = [
        draw(st.lists(magnitudes, min_size=1, max_size=5), label=f"axis {axis} values")
        for axis in range(dim)
    ]
    line = draw(st.booleans(), label="line")
    count = draw(st.integers(1, 30), label="objects")
    ids = draw(st.permutations(range(0, 7 * count, 7)), label="ids")
    objects = []
    for oid in ids:
        point = [draw(st.sampled_from(axis_values)) for axis_values in values]
        if line:
            point[0] = values[0][0]
        size = draw(st.sampled_from((1, MAX_K)))
        doc = draw(st.lists(
            st.integers(1, VOCABULARY), min_size=size, max_size=size, unique=True,
        ))
        objects.append(KeywordObject(oid, tuple(point), frozenset(doc)))
    return Dataset(objects), values


@st.composite
def rects(draw, values):
    """Each side's bounds on the corpus's coordinates or anywhere in its
    range, possibly the same value (zero width)."""
    lo, hi = [], []
    for axis_values in values:
        bound = st.one_of(st.sampled_from(axis_values), magnitudes)
        a = draw(bound)
        b = a if draw(st.booleans()) else draw(bound)
        lo.append(min(a, b))
        hi.append(max(a, b))
    return Rect(lo, hi)


def outcome(query, rect, words, budget):
    counter = CostCounter(budget=budget)
    try:
        ids = [obj.oid for obj in query(rect, words, counter)]
        return ("served", ids, counter.snapshot())
    except BudgetExceeded:
        return ("exceeded", counter.snapshot())


@fuzz_settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=corpora(), data=st.data())
def test_vectorized_paths_match_the_scalar_paths(drawn, data):
    dataset, values = drawn
    multi = MultiKOrpIndex(dataset, MAX_K)
    structured = StructuredOnlyIndex(dataset)
    backend = VectorizedBackend(
        dataset, structured.tree, [multi.fused_for(k) for k in range(2, MAX_K + 1)]
    )
    for _ in range(3):
        rect = data.draw(rects(values), label="rect")
        k = data.draw(st.integers(1, MAX_K), label="k")
        words = data.draw(
            st.lists(st.integers(1, ABSENT), min_size=k, max_size=k, unique=True),
            label="words",
        )
        pairs = [
            (multi.keywords.query_rect, backend.query_rect),
            (structured.query_rect, backend.query_structured),
        ]
        if k >= 2:
            pairs.append((multi.fused_for(k).query, backend.query_fused))
        for scalar, vectorized in pairs:
            served = outcome(scalar, rect, words, None)
            assert outcome(vectorized, rect, words, None) == served, (scalar, rect, words)
            budget = data.draw(st.integers(1, served[2]["total"] + 1), label="budget")
            assert outcome(vectorized, rect, words, budget) == outcome(
                scalar, rect, words, budget
            ), (scalar, rect, words, budget)
