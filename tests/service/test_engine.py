"""Unit tests for repro.service.engine — the budget-bounded serving layer."""

import json

import numpy as np
import pytest

from repro.costmodel import CostCounter
from repro.dataset import Dataset
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect
from repro.service import QueryEngine

from helpers import random_dataset


def _random_queries(rng, count, max_k=3, vocabulary=8):
    queries = []
    for _ in range(count):
        a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
        c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
        rect = Rect((a, c), (b, d))
        words = rng.sample(range(1, vocabulary + 1), rng.randint(1, max_k))
        queries.append((rect, words))
    return queries


class TestCorrectness:
    def test_agrees_with_brute_force_all_ks(self, rng):
        ds = random_dataset(rng, 150)
        engine = QueryEngine(ds, max_k=3)
        for rect, words in _random_queries(rng, 25):
            got = sorted(o.oid for o in engine.query(rect, words))
            want = sorted(
                o.oid
                for o in ds
                if rect.contains_point(o.point) and o.contains_keywords(words)
            )
            assert got == want, words

    def test_exact_under_tight_budget(self, rng):
        """Fallbacks and degradation never change the answer."""
        ds = random_dataset(rng, 200)
        engine = QueryEngine(ds, max_k=3, default_budget=10, cache_size=0)
        for rect, words in _random_queries(rng, 20):
            got = sorted(o.oid for o in engine.query(rect, words))
            want = sorted(
                o.oid
                for o in ds
                if rect.contains_point(o.point) and o.contains_keywords(words)
            )
            assert got == want, words

    def test_keyword_order_and_duplicates_normalized(self, rng):
        ds = random_dataset(rng, 80)
        engine = QueryEngine(ds, max_k=2)
        rect = Rect((1.0, 1.0), (9.0, 9.0))
        a = engine.query(rect, [1, 2])
        b = engine.query(rect, [2, 1, 2])
        assert [o.oid for o in a] == [o.oid for o in b]
        # The second call must be a cache hit: same normalized key.
        assert engine.last_record.cache == "hit"


class TestBudgetAndFallback:
    def test_tight_budget_never_raises(self, rng):
        """Acceptance demo: a batch under a tight budget completes with zero
        raised BudgetExceeded — blow-ups appear only as recorded fallbacks."""
        ds = random_dataset(rng, 300)
        engine = QueryEngine(ds, max_k=3, cache_size=0)
        queries = _random_queries(rng, 30)
        engine.batch(queries, budget=8)  # absurdly tight: everything degrades
        traces = engine.records
        assert len(traces) == 30
        assert sum(len(t.fallbacks) for t in traces) > 0
        for t in traces:
            if t.fallbacks and not t.degraded:
                # Served by a later strategy that fit the budget.
                assert t.strategy not in [f["strategy"] for f in t.fallbacks]

    def test_fallback_recorded_with_spent_units(self, rng):
        ds = random_dataset(rng, 300)
        engine = QueryEngine(ds, max_k=2, cache_size=0)
        engine.query(Rect.full(2), [1, 2], budget=5)
        record = engine.last_record
        assert record.fallbacks, "a 5-unit budget must force at least one fallback"
        for fallback in record.fallbacks:
            assert fallback["spent"] >= 5
            assert fallback["budget"] == 5

    def test_generous_budget_no_fallbacks(self, rng):
        ds = random_dataset(rng, 100)
        engine = QueryEngine(ds, max_k=2, cache_size=0)
        engine.query(Rect.full(2), [1, 2], budget=10**9)
        record = engine.last_record
        assert record.fallbacks == []
        assert not record.degraded

    def test_degraded_marks_unbudgeted_rerun(self, rng):
        ds = random_dataset(rng, 300)
        engine = QueryEngine(ds, max_k=2, cache_size=0)
        engine.query(Rect.full(2), [1, 2], budget=1)
        record = engine.last_record
        assert record.degraded
        # All three strategies were tried and blew the budget.
        assert len(record.fallbacks) == 3
        assert engine.stats()["degraded"] == 1

    def test_per_call_budget_overrides_default(self, rng):
        ds = random_dataset(rng, 200)
        engine = QueryEngine(ds, max_k=2, default_budget=1, cache_size=0)
        engine.query(Rect.full(2), [1, 2], budget=10**9)
        assert not engine.last_record.degraded
        engine.query(Rect((0.0, 0.0), (0.1, 0.1)), [1, 2])
        assert engine.last_record.budget == 1

    def test_caller_counter_sees_all_spent_units(self, rng):
        ds = random_dataset(rng, 200)
        engine = QueryEngine(ds, max_k=2, cache_size=0)
        counter = CostCounter()
        engine.query(Rect.full(2), [1, 2], budget=5, counter=counter)
        record = engine.last_record
        assert counter.total == record.cost["total"]
        assert counter.total > 5  # includes the abandoned probes


class TestCache:
    def test_repeat_batch_hits_cache(self, rng):
        ds = random_dataset(rng, 150)
        engine = QueryEngine(ds, max_k=3, cache_size=64)
        queries = _random_queries(rng, 15)
        engine.batch(queries)
        before = engine.counter.total
        results = engine.batch(queries)
        assert engine.counter.total == before  # warm pass charged nothing
        assert engine.cache.hit_rate > 0
        traces = engine.records[-15:]
        assert all(t.cache == "hit" for t in traces)
        for (rect, words), got in zip(queries, results):
            want = sorted(
                o.oid
                for o in ds
                if rect.contains_point(o.point) and o.contains_keywords(words)
            )
            assert sorted(o.oid for o in got) == want

    def test_cache_disabled(self, rng):
        ds = random_dataset(rng, 60)
        engine = QueryEngine(ds, max_k=2, cache_size=0)
        rect = Rect((1.0, 1.0), (9.0, 9.0))
        engine.query(rect, [1, 2])
        engine.query(rect, [1, 2])
        assert engine.cache.hits == 0
        assert engine.stats()["cache"]["size"] == 0


class TestObservability:
    def test_record_json_round_trips(self, rng):
        ds = random_dataset(rng, 100)
        engine = QueryEngine(ds, max_k=2, default_budget=64)
        engine.query(Rect((2.0, 2.0), (8.0, 8.0)), [1, 2])
        payload = json.loads(engine.last_record.to_json())
        assert payload["strategy"] in ("fused", "keywords_only", "structured_only")
        assert payload["cache"] == "miss"
        assert payload["cost"]["total"] > 0
        assert set(payload["rect"]) == {"lo", "hi"}
        assert payload["keywords"] == [1, 2]

    def test_stats_aggregates(self, rng):
        ds = random_dataset(rng, 100)
        engine = QueryEngine(ds, max_k=3)
        queries = _random_queries(rng, 10)
        engine.batch(queries)
        engine.batch(queries)
        stats = engine.stats()
        assert stats["queries"] == 20
        assert sum(stats["strategies"].values()) == 20
        assert stats["cache"]["hits"] >= 1
        assert stats["cost"]["total"] == engine.counter.total
        json.dumps(stats)  # JSON-safe throughout

    def test_records_bounded(self, rng):
        ds = random_dataset(rng, 50)
        engine = QueryEngine(ds, max_k=2, keep_records=5, cache_size=0)
        for _ in range(8):
            engine.query(Rect.full(2), [1, 2])
        assert len(engine.records) == 5
        assert engine.records[-1].query_id == 8

    def test_export_records_json(self, rng):
        ds = random_dataset(rng, 50)
        engine = QueryEngine(ds, max_k=2)
        engine.query(Rect.full(2), [1, 2])
        exported = json.loads(engine.export_records_json())
        assert len(exported) == 1
        assert exported[0]["query_id"] == 1


class TestOnePlanner:
    """One planner per engine plans every query, whatever its keyword count."""

    def test_max_k_1_engine_plans_like_any_other(self, rng):
        """A max_k=1 engine's one-keyword plans equal a max_k=2 engine's: it
        estimates selectivity from the same sample instead of taking it as 0
        and trying structured-only first on every query."""
        ds = random_dataset(rng, 400, vocabulary=24)
        queries = _random_queries(rng, 40, max_k=1, vocabulary=24)
        plans = []
        for max_k in (1, 2):
            engine = QueryEngine(ds, max_k=max_k, cache_size=0)
            engine.batch(queries)
            plans.append(
                [
                    (r.strategy, r.estimates, r.cost, r.result_count)
                    for r in engine.records
                ]
            )
        assert plans[0] == plans[1]
        assert any(strategy == "keywords_only" for strategy, *_ in plans[0])

    def test_serving_leaves_the_planner_unchanged(self, rng):
        """The planner keeps no state between calls: serving one-keyword and
        multi-keyword queries, budgeted or not, changes none of its
        attributes."""
        engine = QueryEngine(random_dataset(rng, 150), max_k=3, cache_size=0)
        planner = engine._planner
        before = dict(vars(planner))
        sample = planner._sample.copy()
        queries = _random_queries(rng, 30)
        assert {len(words) for _rect, words in queries} == {1, 2, 3}
        engine.batch(queries)
        engine.batch(queries, budget=8)
        assert vars(planner) == before
        assert np.array_equal(planner._sample, sample)


class TestValidation:
    def test_empty_keywords_rejected(self, rng):
        engine = QueryEngine(random_dataset(rng, 30), max_k=2)
        with pytest.raises(ValidationError):
            engine.query(Rect.full(2), [])

    def test_too_many_keywords_rejected(self, rng):
        engine = QueryEngine(random_dataset(rng, 30), max_k=2)
        with pytest.raises(ValidationError):
            engine.query(Rect.full(2), [1, 2, 3])

    def test_dimension_mismatch_rejected(self, rng):
        engine = QueryEngine(random_dataset(rng, 30), max_k=2)
        with pytest.raises(ValidationError):
            engine.query(Rect.full(3), [1, 2])

    def test_bad_budget_rejected(self, rng):
        with pytest.raises(ValidationError):
            QueryEngine(random_dataset(rng, 30), default_budget=0)

    def test_flat_rect_coerced(self, rng):
        ds = random_dataset(rng, 60)
        engine = QueryEngine(ds, max_k=2)
        got = engine.query([1.0, 1.0, 9.0, 9.0], [1, 2])
        want = engine.query(Rect((1.0, 1.0), (9.0, 9.0)), [1, 2])
        assert [o.oid for o in got] == [o.oid for o in want]

    def test_odd_flat_rect_rejected(self, rng):
        engine = QueryEngine(random_dataset(rng, 30), max_k=2)
        with pytest.raises(ValidationError):
            engine.query([1.0, 2.0, 3.0], [1])


class TestRegressions:
    """Regression tests for PR-2's serving-layer invariant violations.

    Each of these fails on the PR-1 engine (commit e30d775) and pins the
    fixed behaviour."""

    def test_budgeted_caller_counter_never_raises(self, rng):
        """`BudgetExceeded` must not escape query() through the caller's
        counter: the trace and cache entry land, and the counter still
        receives the full spend (over-run, not enforced)."""
        ds = random_dataset(rng, 120)
        engine = QueryEngine(ds, max_k=2, cache_size=16)
        counter = CostCounter(budget=1)
        results = engine.query(Rect.full(2), [1, 2], counter=counter)
        record = engine.last_record
        assert record is not None and record.cache == "miss"
        assert record.result_count == len(results)
        # The caller's counter got every spent unit despite its blown budget.
        assert counter.total == record.cost["total"]
        assert counter.total > 1
        # The cache entry landed too: the repeat is a hit.
        engine.query(Rect.full(2), [1, 2])
        assert engine.last_record.cache == "hit"

    def test_mutating_returned_results_cannot_poison_cache(self, rng):
        ds = random_dataset(rng, 120)
        engine = QueryEngine(ds, max_k=2, cache_size=16)
        rect = Rect((1.0, 1.0), (9.0, 9.0))
        want = sorted(
            o.oid
            for o in ds
            if rect.contains_point(o.point) and o.contains_keywords([1, 2])
        )
        first = engine.query(rect, [1, 2])
        assert isinstance(first, tuple)
        # A caller trying list-style mutation must not be able to alter the
        # cached entry (on the PR-1 engine this append lands in the cache).
        try:
            first.append("poison")  # type: ignore[attr-defined]
        except AttributeError:
            pass
        second = engine.query(rect, [1, 2])
        assert engine.last_record.cache == "hit"
        assert sorted(o.oid for o in second) == want
        assert engine.last_record.result_count == len(want)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_flat_rect_rejected(self, rng, bad):
        engine = QueryEngine(random_dataset(rng, 40), max_k=2)
        with pytest.raises(ValidationError):
            engine.query([bad, 0.0, 1.0, 1.0], [1])
        with pytest.raises(ValidationError):
            engine.query([0.0, 0.0, bad, 1.0], [1])


class TestEmptyDataset:
    def test_served_with_honest_trace(self):
        engine = QueryEngine(Dataset.empty(2), max_k=3)
        assert engine.query(Rect.full(2), [1, 2]) == ()
        record = engine.last_record
        assert record.strategy == "empty_dataset"
        assert record.cost.get("total", 0) == 0
        assert engine.query(Rect.full(2), [1, 2]) == ()
        assert engine.last_record.cache == "hit"

    def test_still_validates(self):
        engine = QueryEngine(Dataset.empty(2), max_k=3)
        with pytest.raises(ValidationError):
            engine.query(Rect.full(2), [])
        with pytest.raises(ValidationError):
            engine.query(Rect.full(3), [1])
