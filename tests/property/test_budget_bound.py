"""The stated cost bound of a budgeted query (``QueryEngine._execute``).

Under a budget ``B`` every abandoned strategy spends more than ``B``, and
the strategy that completes spends at most ``B``.  A degraded query re-runs
the cheapest-estimate strategy unbudgeted, so its final run costs exactly
what the same query costs unbudgeted.  A query's final spend is read from
its trace: the span of the strategy that served it, less that strategy's own
abandoned attempt.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rectangles import Rect
from repro.service import QueryEngine
from repro.trace import TraceSpan
from repro.workloads import WorkloadConfig, zipf_dataset

from helpers import fuzz_settings

BACKENDS = ("cost_model", "vectorized")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.fixture(scope="module")
def engines():
    """Per fixed backend: a traced engine that serves the budgeted queries,
    and its unbudgeted twin (same corpus, same planner seed)."""
    dataset = zipf_dataset(
        WorkloadConfig(num_objects=200, vocabulary=10, doc_max=4, seed=1601)
    )
    return {
        backend: tuple(
            QueryEngine(dataset, max_k=2, cache_size=0, tracing=tracing, backend=backend)
            for tracing in (True, False)
        )
        for backend in BACKENDS
    }


@st.composite
def queries(draw):
    xs = sorted((draw(unit), draw(unit)))
    ys = sorted((draw(unit), draw(unit)))
    words = draw(st.lists(st.integers(1, 10), min_size=1, max_size=2, unique=True))
    return Rect((xs[0], ys[0]), (xs[1], ys[1])), words


@fuzz_settings(max_examples=200, deadline=None)
@given(backend=st.sampled_from(BACKENDS), query=queries(), data=st.data())
def test_budgeted_cost_obeys_the_stated_bound(engines, backend, query, data):
    engine, twin = engines[backend]
    rect, words = query
    twin.query(rect, words)
    unbudgeted = twin.last_record
    budget = data.draw(st.integers(1, max(1, 2 * unbudgeted.cost["total"])), label="budget")
    engine.query(rect, words, budget=budget)
    record = engine.last_record

    spent = [fallback["spent"] for fallback in record.fallbacks]
    assert all(units > budget for units in spent)
    if record.strategy == "pruned":
        assert record.cost["total"] == 0 and not spent
        return
    root = TraceSpan.from_dict(record.trace)
    (span,) = [
        child
        for child in root.children
        if (child.name, child.component) == (record.strategy, "engine")
    ]
    own_attempt = sum(
        fallback["spent"]
        for fallback in record.fallbacks
        if fallback["strategy"] == record.strategy
    )
    final = span.subtree_total() - own_attempt
    assert record.cost["total"] == sum(spent) + final
    if record.degraded:
        assert record.strategy == unbudgeted.strategy
        assert final == unbudgeted.cost["total"]
    else:
        assert final <= budget
