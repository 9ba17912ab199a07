"""Unit tests for repro.service.sharding — partitioning and fan-out serving."""

import json
import pickle
import random
from collections import Counter

import pytest

from repro.core.planner import STRATEGIES
from repro.costmodel import CostCounter
from repro.dataset import Dataset
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect
from repro.persist import load_index, save_index
from repro.service import QueryEngine, ShardedQueryEngine, partition_dataset
from repro.service.sharding import split_budget_exact
from repro.telemetry import render_openmetrics
from repro.workloads import WorkloadConfig, random_rect, zipf_dataset

from helpers import random_dataset


def _brute(ds, rect, words):
    return sorted(
        o.oid
        for o in ds
        if rect.contains_point(o.point) and o.contains_keywords(words)
    )


class TestPartition:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 13])
    def test_partition_is_balanced_and_exhaustive(self, rng, shards):
        ds = random_dataset(rng, 150)
        pieces = partition_dataset(ds, shards)
        assert len(pieces) == shards
        sizes = [len(piece) for piece in pieces]
        assert sum(sizes) == len(ds)
        assert max(sizes) - min(sizes) <= 1
        oids = sorted(o.oid for piece in pieces for o in piece.objects)
        assert oids == sorted(o.oid for o in ds)

    def test_shards_are_spatially_coherent(self, rng):
        """The first cut is a median x-split: shard halves are separated."""
        ds = random_dataset(rng, 100)
        left, right = partition_dataset(ds, 2)
        max_left = max(o.point[0] for o in left.objects)
        min_right = min(o.point[0] for o in right.objects)
        assert max_left <= min_right

    def test_more_shards_than_objects(self, rng):
        ds = random_dataset(rng, 3)
        pieces = partition_dataset(ds, 7)
        assert len(pieces) == 7
        assert sum(len(piece) for piece in pieces) == 3
        # Surplus shards are explicitly empty datasets, not errors.
        for piece in pieces:
            assert piece.dim == ds.dim

    def test_bad_shard_count_rejected(self, rng):
        with pytest.raises(ValidationError):
            partition_dataset(random_dataset(rng, 10), 0)


class TestShardedServing:
    def test_exact_answers_and_merged_order(self, rng):
        ds = random_dataset(rng, 150)
        engine = ShardedQueryEngine(ds, shards=4, max_k=3)
        for _ in range(15):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            got = engine.query(rect, words)
            assert isinstance(got, tuple)
            assert [o.oid for o in got] == _brute(ds, rect, words)

    def test_trace_cost_equals_sum_of_slices(self, rng):
        ds = random_dataset(rng, 120)
        engine = ShardedQueryEngine(ds, shards=3, max_k=2, cache_size=0)
        engine.query(Rect.full(2), [1, 2], budget=64)
        record = engine.last_record
        assert len(record.shards) == 3
        assert record.cost["total"] == sum(s["cost"] for s in record.shards)
        for slice_ in record.shards:
            assert set(slice_) == {
                "shard_id", "strategy", "backend", "budget", "cost", "degraded",
            }

    def test_caller_counter_receives_merged_spend_once(self, rng):
        ds = random_dataset(rng, 120)
        engine = ShardedQueryEngine(ds, shards=4, max_k=2, cache_size=0)
        counter = CostCounter()
        engine.query(Rect.full(2), [1, 2], budget=64, counter=counter)
        assert counter.total == engine.last_record.cost["total"]

    def test_budgeted_caller_counter_never_raises(self, rng):
        """Same invariant as the unsharded engine: a blown caller budget
        must not lose the merged trace or the cache entry."""
        ds = random_dataset(rng, 120)
        engine = ShardedQueryEngine(ds, shards=4, max_k=2, cache_size=16)
        counter = CostCounter(budget=1)
        engine.query(Rect.full(2), [1, 2], counter=counter)
        assert engine.last_record.cache == "miss"
        assert counter.total == engine.last_record.cost["total"]
        engine.query(Rect.full(2), [1, 2])
        assert engine.last_record.cache == "hit"

    def test_budget_split_exactly_over_running_shards(self, rng):
        """The shards that run share B exactly (split_budget_exact); the
        shards the rectangle misses are pruned with budget 0 and cost 0."""
        ds = random_dataset(rng, 200)
        engine = ShardedQueryEngine(ds, shards=4, max_k=2, cache_size=0)
        # A sliver rectangle: most shards' bounds miss it.
        engine.query(Rect((9.5, 9.5), (10.0, 10.0)), [1, 2], budget=100)
        slices = engine.last_record.shards
        assert len(slices) == 4
        active = [s for s in slices if s["strategy"] != "pruned"]
        pruned = [s for s in slices if s["strategy"] == "pruned"]
        assert active and pruned
        assert [s["budget"] for s in active] == split_budget_exact(100, len(active))
        assert sum(s["budget"] for s in active) == 100
        for entry in pruned:
            assert entry["budget"] == 0 and entry["cost"] == 0

    def test_degradation_stays_per_slice(self, rng):
        """A starved fan-out degrades shard slices, not strategies globally;
        answers stay exact and no exception escapes."""
        ds = random_dataset(rng, 200)
        engine = ShardedQueryEngine(ds, shards=4, max_k=2, cache_size=0)
        rect = Rect.full(2)
        got = engine.query(rect, [1, 2], budget=4)  # 1 unit per shard
        record = engine.last_record
        assert record.degraded
        assert any(s["degraded"] for s in record.shards)
        assert [o.oid for o in got] == _brute(ds, rect, [1, 2])
        stats = engine.stats()
        assert stats["degraded"] == 1
        assert stats["degraded_slices"] == sum(
            1 for s in record.shards if s["degraded"]
        )

    def test_shard_fallbacks_tagged_and_rolled_up(self, rng):
        ds = random_dataset(rng, 300)
        engine = ShardedQueryEngine(ds, shards=2, max_k=2, cache_size=0)
        engine.query(Rect.full(2), [1, 2], budget=10)
        record = engine.last_record
        assert record.fallbacks
        for fallback in record.fallbacks:
            assert fallback["shard"] in (0, 1)
            assert {"strategy", "spent", "budget"} <= set(fallback)

    def test_record_json_round_trips_with_shards(self, rng):
        ds = random_dataset(rng, 80)
        engine = ShardedQueryEngine(ds, shards=2, max_k=2, default_budget=64)
        engine.query(Rect((2.0, 2.0), (8.0, 8.0)), [1, 2])
        payload = json.loads(engine.last_record.to_json())
        assert payload["strategy"] == "sharded"
        assert len(payload["shards"]) == 2
        json.dumps(engine.stats())  # JSON-safe throughout

    def test_validation_matches_unsharded_engine(self, rng):
        engine = ShardedQueryEngine(random_dataset(rng, 40), shards=2, max_k=2)
        with pytest.raises(ValidationError):
            engine.query(Rect.full(2), [])
        with pytest.raises(ValidationError):
            engine.query(Rect.full(2), [1, 2, 3])
        with pytest.raises(ValidationError):
            engine.query(Rect.full(3), [1, 2])
        with pytest.raises(ValidationError):
            engine.query([float("inf"), 0.0, 1.0, 1.0], [1])
        with pytest.raises(ValidationError):
            ShardedQueryEngine(random_dataset(rng, 10), shards=0)

    def test_per_shard_planner_cells_survive_rebalance(self, rng):
        """The sharded engine owns its per-shard planner cells, so a
        rebalance (fresh shard engines) keeps their query counts."""
        engine = ShardedQueryEngine(random_dataset(rng, 150), shards=3, max_k=2, cache_size=0)
        for _ in range(25):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            engine.query(Rect((a, c), (b, d)), rng.sample(range(1, 9), rng.randint(1, 2)))

        def shard_cells():
            return {
                (cell["strategy"], cell["backend"]): cell["queries"]
                for cell in engine.planner_stats()["strategies"]
                if cell["strategy"] != "sharded"
            }

        before = shard_cells()
        assert sum(before.values()) > 25  # several shards ran per query
        engine.rebalance()
        assert shard_cells() == before

    def test_empty_dataset_served(self):
        engine = ShardedQueryEngine(Dataset.empty(2), shards=3, max_k=2)
        assert engine.query(Rect.full(2), [1]) == ()
        assert engine.last_record.cost.get("total", 0) == 0

    def test_space_units_aggregate_shards(self, rng):
        ds = random_dataset(rng, 100)
        engine = ShardedQueryEngine(ds, shards=4, max_k=2)
        assert engine.space_units == sum(
            shard.space_units for shard in engine.shard_engines
        )
        assert engine.input_size == ds.total_doc_size
        assert engine.dim == 2


def _auto_engine():
    """An ``auto`` S=3 traced engine over 1,500 Zipf objects, where each
    shard's frequent keywords reach AUTO_MIN_CANDIDATES and its tail
    keywords do not, and the 60 queries (budgets None, 40 and 400; 1-3
    keywords) to serve through it."""
    rng = random.Random(2101)
    dataset = zipf_dataset(
        WorkloadConfig(num_objects=1500, vocabulary=16, doc_max=4, seed=2100)
    )
    engine = ShardedQueryEngine(dataset, shards=3, max_k=3, tracing=True, backend="auto")
    queries = [
        (
            random_rect(rng, 2, side=rng.choice((0.2, 0.5, 1.0))),
            rng.sample(range(1, 17), rng.randint(1, 3)),
            rng.choice((None, 40, 400)),
        )
        for _ in range(60)
    ]
    return engine, queries


class TestAutoBackend:
    def test_execute_writes_no_shard_engine_state(self):
        engine, queries = _auto_engine()
        before = [pickle.dumps(shard) for shard in engine.shard_engines]
        for rect, keywords, budget in queries:
            engine.query(rect, keywords, budget=budget)
        assert [pickle.dumps(shard) for shard in engine.shard_engines] == before

    def test_slice_backends_reach_the_export(self):
        """Each slice records the backend its shard resolved, and the sharded
        engine's own registry counts them."""
        engine, queries = _auto_engine()
        for rect, keywords, budget in queries:
            engine.query(rect, keywords, budget=budget)
        misses = [record for record in engine.records if record.cache == "miss"]
        assert all(record.backend == "auto" for record in misses)
        planned = Counter(
            entry["backend"]
            for record in misses
            for entry in record.shards
            if entry["strategy"] in STRATEGIES
        )
        assert set(planned) == {"cost_model", "vectorized"}
        lines = render_openmetrics(engine.metrics).splitlines()
        for backend, count in planned.items():
            assert f"repro_backend_{backend}_total {count}" in lines


class TestPersistence:
    def test_sharded_engine_round_trips(self, rng, tmp_path):
        ds = random_dataset(rng, 100)
        engine = ShardedQueryEngine(ds, shards=3, max_k=2, cache_size=16)
        rect = Rect((1.0, 1.0), (9.0, 9.0))
        want = [o.oid for o in engine.query(rect, [1, 2])]
        path = tmp_path / "sharded.idx"
        save_index(engine, path)
        loaded = load_index(path, expected_class=ShardedQueryEngine)
        assert [o.oid for o in loaded.query(rect, [2, 1])] == want
        assert loaded.last_record.cache == "hit"  # warm cache travelled

    def test_tuple_expected_class_accepts_either_engine(self, rng, tmp_path):
        ds = random_dataset(rng, 60)
        path = tmp_path / "either.idx"
        save_index(ShardedQueryEngine(ds, shards=2, max_k=2), path)
        loaded = load_index(path, expected_class=(QueryEngine, ShardedQueryEngine))
        assert isinstance(loaded, ShardedQueryEngine)
        with pytest.raises(ValidationError) as excinfo:
            load_index(path, expected_class=(QueryEngine,))
        assert "QueryEngine" in str(excinfo.value)
