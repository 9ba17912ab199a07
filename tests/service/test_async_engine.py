"""Tests for the async serving layer: admission, fan-out, snapshots.

pytest-asyncio is an optional dev dependency; every test here drives its
coroutines through ``asyncio.run`` inside a plain sync function so the
suite passes with or without the plugin installed.
"""

import asyncio
import threading

import pytest

from repro.costmodel import CostCounter
from repro.core.dynamize import DynamicOrpKw
from repro.dataset import Dataset
from repro.errors import BudgetExceeded, ValidationError
from repro.geometry.rectangles import Rect
from repro.service import (
    AdmissionController,
    AsyncQueryEngine,
    QueryEngine,
    ShardedQueryEngine,
    SnapshotManager,
)
from repro.trace import TraceSpan

from helpers import random_dataset


def small_workload(rng, count=25, coord_range=10.0, vocabulary=8):
    queries = []
    for _ in range(count):
        a, b = sorted(rng.uniform(0, coord_range) for _ in range(2))
        c, d = sorted(rng.uniform(0, coord_range) for _ in range(2))
        queries.append((Rect((a, c), (b, d)), rng.sample(range(1, vocabulary + 1), 2)))
    return queries


class TestAdmissionController:
    def test_reserve_and_release(self):
        control = AdmissionController(max_inflight_cost=100)
        control.admit(60)
        assert control.inflight_cost == 60
        assert control.inflight_queries == 1
        control.admit(40)
        assert control.inflight_cost == 100
        control.release(60)
        control.release(40)
        assert control.inflight_cost == 0
        assert control.inflight_queries == 0

    def test_shed_is_budget_exceeded_with_rollback(self):
        control = AdmissionController(max_inflight_cost=100)
        control.admit(80)
        with pytest.raises(BudgetExceeded):
            control.admit(30)
        # The refused reservation left no residue: a fitting one still lands.
        assert control.inflight_cost == 80
        assert control.inflight_queries == 1
        control.admit(20)
        assert control.inflight_cost == 100

    def test_unbounded_admits_everything(self):
        control = AdmissionController(max_inflight_cost=None)
        for _ in range(50):
            control.admit(10_000)
        assert control.inflight_queries == 50

    def test_bad_bound_rejected(self):
        with pytest.raises(ValidationError):
            AdmissionController(max_inflight_cost=0)


class TestDifferentialPlain:
    def test_byte_identical_to_sync_engine(self, rng):
        """Quiesced writer: async answers == sync answers, order included."""
        dataset = random_dataset(rng, 250)
        sync = QueryEngine(dataset, cache_size=0)
        wrapped = QueryEngine(dataset, cache_size=0)
        workload = small_workload(rng)

        async def drive():
            async with AsyncQueryEngine(wrapped) as engine:
                return await engine.batch(workload, budget=300)

        got = asyncio.run(drive())
        expect = [sync.query(rect, words, budget=300) for rect, words in workload]
        assert got == expect  # tuples compare element-wise: byte-identical


class TestDifferentialSharded:
    def test_identical_to_sync_sharded_engine(self, rng):
        """One engine, record for record: a query served inline and through
        the pool returns the same results, cost, shard slices, degraded flag
        and fallbacks — on the built layout, after inserts inside and
        outside the build bounds and deletes, and after a rebalance."""
        workload = []
        for _ in range(12):
            # Corners beyond the data box too: rects that miss every shard,
            # and rects that reach the objects inserted outside it.
            a, b = sorted(rng.uniform(-5.0, 15.0) for _ in range(2))
            c, d = sorted(rng.uniform(-5.0, 15.0) for _ in range(2))
            workload.append((Rect((a, c), (b, d)), rng.sample(range(1, 9), 2)))

        def outcome(engine, results):
            record = engine.last_record
            return (
                results, record.cost, record.shards, record.degraded,
                record.fallbacks,
            )

        async def drive(engine, shards):
            async with AsyncQueryEngine(engine) as front:
                for rect, words in workload:
                    for budget in (None, 4096, shards):
                        inline = outcome(engine, engine.query(rect, words, budget=budget))
                        pooled = outcome(
                            engine, await front.query(rect, words, budget=budget)
                        )
                        assert pooled == inline, (shards, budget, rect, words)

        for shards in (1, 2, 4, 7):
            dataset = random_dataset(rng, 300)
            engine = ShardedQueryEngine(dataset, shards=shards, cache_size=0)
            asyncio.run(drive(engine, shards))
            # Inserts inside the build bounds, then outside them.
            for lo_x, hi_x, lo_y, hi_y, count in ((0, 10, 0, 10, 12), (11, 14, -4, -1, 6)):
                for _ in range(count):
                    point = (rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))
                    engine.insert(point, rng.sample(range(1, 9), 3))
            for oid in rng.sample(sorted(obj.oid for obj in dataset.objects), 20):
                engine.delete(oid)
            assert engine.epoch.tombstones and any(engine.epoch.deltas)
            asyncio.run(drive(engine, shards))
            engine.rebalance()
            asyncio.run(drive(engine, shards))

    def test_matches_unsharded_engine_result_sets(self, rng):
        dataset = random_dataset(rng, 300)
        plain = QueryEngine(dataset, cache_size=0)
        wrapped = ShardedQueryEngine(dataset, shards=3, cache_size=0)
        workload = small_workload(rng)

        async def drive():
            async with AsyncQueryEngine(wrapped) as engine:
                return await engine.batch(workload)

        for (rect, words), got in zip(workload, asyncio.run(drive())):
            expect = tuple(sorted(plain.query(rect, words), key=lambda o: o.oid))
            assert got == expect

    def test_budget_split_exact_over_active_shards(self, rng):
        dataset = random_dataset(rng, 200)
        wrapped = ShardedQueryEngine(dataset, shards=4, cache_size=0)

        async def drive():
            async with AsyncQueryEngine(wrapped) as engine:
                await engine.query(Rect.full(2), [1, 2], budget=103)

        asyncio.run(drive())
        slices = wrapped.last_record.shards
        active = [s for s in slices if s["strategy"] != "pruned"]
        assert sum(s["budget"] for s in active) == 103
        assert max(s["budget"] for s in active) - min(
            s["budget"] for s in active
        ) <= 1

    def test_pruned_shards_are_recorded_not_queried(self, rng):
        dataset = random_dataset(rng, 200, coord_range=10.0)
        wrapped = ShardedQueryEngine(dataset, shards=4, cache_size=0)

        async def drive():
            async with AsyncQueryEngine(wrapped) as engine:
                # A sliver in one corner cannot touch every shard's bounds.
                await engine.query(Rect((0.0, 0.0), (0.4, 0.4)), [1, 2])

        asyncio.run(drive())
        slices = wrapped.last_record.shards
        assert len(slices) == 4  # every shard accounted for
        pruned = [s for s in slices if s["strategy"] == "pruned"]
        assert pruned, "a corner sliver should miss at least one shard"
        for entry in pruned:
            assert entry["cost"] == 0 and not entry["degraded"]

    def test_caller_counter_receives_merged_spend(self, rng):
        dataset = random_dataset(rng, 150)
        wrapped = ShardedQueryEngine(dataset, shards=2, cache_size=0)
        caller = CostCounter()

        async def drive():
            async with AsyncQueryEngine(wrapped) as engine:
                await engine.query(Rect.full(2), [1, 2], counter=caller)

        asyncio.run(drive())
        record = wrapped.last_record
        assert caller.total == record.cost["total"] > 0

    def test_cache_hit_served_from_loop_thread(self, rng):
        dataset = random_dataset(rng, 150)
        wrapped = ShardedQueryEngine(dataset, shards=2, cache_size=8)

        async def drive():
            async with AsyncQueryEngine(wrapped) as engine:
                first = await engine.query(Rect.full(2), [1, 2])
                second = await engine.query(Rect.full(2), [1, 2])
                return first, second

        first, second = asyncio.run(drive())
        assert first == second
        assert wrapped.last_record.strategy == "cache"
        assert wrapped.last_record.cache == "hit"

    def test_trace_grafts_preserve_leaf_sum_invariant(self, rng):
        """Per-shard tracer trees grafted into the fan-out root must keep
        leaf costs summing exactly to the merged counter totals."""
        dataset = random_dataset(rng, 200)
        wrapped = ShardedQueryEngine(dataset, shards=3, cache_size=0, tracing=True)

        async def drive():
            async with AsyncQueryEngine(wrapped) as engine:
                await engine.query(Rect.full(2), [1, 2], budget=200)

        asyncio.run(drive())
        record = wrapped.last_record
        assert record.trace is not None
        root = TraceSpan.from_dict(record.trace)
        leaf = root.leaf_costs()
        for category, units in record.cost.items():
            if category != "total":
                assert leaf.get(category, 0) == units
        assert sum(leaf.values()) == record.cost["total"]


class TestShedding:
    def test_shed_query_recorded_with_reason(self, rng):
        dataset = random_dataset(rng, 150)
        wrapped = ShardedQueryEngine(dataset, shards=2, cache_size=0)
        workload = small_workload(rng, count=10)

        async def drive():
            async with AsyncQueryEngine(wrapped, max_inflight_cost=100) as engine:
                return await engine.batch(workload, budget=100)

        results = asyncio.run(drive())
        shed = [r for r in results if r is None]
        assert shed, "concurrent batch above the bound must shed"
        records = [r for r in wrapped.records if r.strategy == "shed"]
        assert len(records) == len(shed)
        for record in records:
            assert record.reason == "shed:admission"
            assert record.cache == "bypass"
            assert record.to_dict()["reason"] == "shed:admission"

    def test_served_queries_unaffected_by_sheds(self, rng):
        dataset = random_dataset(rng, 150)
        sync = ShardedQueryEngine(dataset, shards=2, cache_size=0)
        wrapped = ShardedQueryEngine(dataset, shards=2, cache_size=0)
        workload = small_workload(rng, count=10)

        async def drive():
            async with AsyncQueryEngine(wrapped, max_inflight_cost=100) as engine:
                return await engine.batch(workload, budget=100)

        results = asyncio.run(drive())
        for (rect, words), got in zip(workload, results):
            if got is not None:
                assert got == sync.query(rect, words, budget=100)

    def test_metrics_track_admitted_and_shed(self, rng):
        dataset = random_dataset(rng, 100)
        wrapped = ShardedQueryEngine(dataset, shards=2, cache_size=0)
        engine = AsyncQueryEngine(wrapped, max_inflight_cost=100)
        workload = small_workload(rng, count=8)

        async def drive():
            return await engine.batch(workload, budget=100)

        try:
            asyncio.run(drive())
        finally:
            engine.close()
        stats = engine.stats()
        counters = stats["metrics"]["counters"]
        assert counters["admitted_total"] + counters["shed_total"] == len(workload)
        assert stats["shed"] == counters["shed_total"]
        # Quiesced: every reservation was released.
        gauges = stats["metrics"]["gauges"]
        assert gauges["inflight_cost"] == 0
        assert gauges["inflight_queries"] == 0


class TestAsyncDynamicIndex:
    """Writes on the event-loop thread beside reads through the front end,
    over a one-shard engine (the engine for a corpus that takes writes)."""

    def test_mutations_and_snapshot_reads(self, rng):
        engine = ShardedQueryEngine(Dataset.empty(2), shards=1)

        async def drive():
            async with AsyncQueryEngine(engine) as front:
                oids = []
                for _ in range(30):
                    oids.append(engine.insert((rng.random(), rng.random()), {1, 2}))
                    await asyncio.sleep(0)
                engine.delete(oids[0])
                await asyncio.sleep(0)
                extra = engine.insert((0.5, 0.5), {1, 2})
                snapshot = SnapshotManager(engine).pin()
                found = await front.query(Rect.full(2), [1, 2])
                return oids, extra, found, snapshot.query(Rect.full(2), [1, 2])

        oids, extra, found, pinned = asyncio.run(drive())
        got = {obj.oid for obj in found}
        assert got == (set(oids) - {oids[0]}) | {extra}
        assert [obj.oid for obj in pinned] == sorted(got)

    def test_gauges_meter_epochs_and_staleness(self, rng):
        engine = ShardedQueryEngine(Dataset.empty(2), shards=1)
        snapshots = SnapshotManager(engine)

        async def drive():
            async with AsyncQueryEngine(engine) as front:
                engine.insert((0.1, 0.1), {1, 2})
                engine.insert((0.2, 0.2), {1, 2})
                stale = snapshots.pin()
                engine.insert((0.3, 0.3), {1, 2})
                await front.query(Rect.full(2), [1, 2])
                snapshots.observe()
                return stale, snapshots.stats(), front.stats()["metrics"]

        stale, stats, metrics = asyncio.run(drive())
        assert stats["published_epoch"] == 3
        assert stats["live_objects"] == 3
        # One registry: the engine's shard gauges and the snapshot gauges
        # sit side by side in what the front end exports.
        assert metrics == stats["metrics"]
        assert metrics["gauges"]["shard_epoch"] == 3
        assert metrics["gauges"]["shard_live_objects"] == 3
        # The held snapshot reports its own staleness, and observing it
        # meters that age.
        assert stale.age() == 1
        assert metrics["gauges"]["snapshot_epoch"] == 2
        assert metrics["gauges"]["snapshot_age"] == 1
        assert metrics["counters"]["snapshots_pinned_total"] == 1
        assert metrics["counters"]["queries_total"] == 1


def _run_threaded_stress(readers=4, steps=60):
    """Threaded stress harness: 1 writer, ``readers`` reader threads.

    The writer interleaves ``insert_many``/``delete`` (crossing several
    rebuild thresholds) and records each published epoch's live set in an
    oracle; readers pin snapshots and assert their full-rectangle answers
    equal the oracle set for the pinned epoch — exactly, every time.
    """
    import random as random_module

    rng = random_module.Random(0xA5)
    index = DynamicOrpKw(k=2, dim=2)
    oracle = {0: frozenset()}
    live = set()
    failures = []
    done = threading.Event()
    reads = [0] * readers

    def writer():
        for step in range(steps):
            if live and rng.random() < 0.4:
                victim = rng.choice(sorted(live))
                index.delete(victim)
                live.discard(victim)
            else:
                batch = rng.randint(1, 7)
                oids = index.insert_many(
                    [(rng.random(), rng.random()) for _ in range(batch)],
                    [{1, 2} for _ in range(batch)],
                )
                live.update(oids)
            oracle[index.epoch.epoch_id] = frozenset(live)
        done.set()

    def reader(slot):
        while not done.is_set() or reads[slot] == 0:
            snapshot = index.epoch
            got = sorted(obj.oid for obj in snapshot.query(Rect.full(2), [1, 2]))
            if len(got) != len(set(got)):
                failures.append(("duplicates", snapshot.epoch_id, got))
                break
            # The writer records the oracle entry right after publishing;
            # spin briefly for it (publication precedes the record).
            expected = None
            for _ in range(200_000):
                expected = oracle.get(snapshot.epoch_id)
                if expected is not None:
                    break
            if expected is None:
                failures.append(("no-oracle", snapshot.epoch_id))
                break
            if set(got) != expected:
                failures.append(
                    ("mismatch", snapshot.epoch_id, got, sorted(expected))
                )
                break
            reads[slot] += 1

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(slot,)) for slot in range(readers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return failures, reads


class TestIsolationStress:
    def test_threaded_readers_never_see_partial_state(self):
        """≥4 concurrent readers + 1 writer: zero isolation violations."""
        failures, reads = _run_threaded_stress(readers=4, steps=60)
        assert not failures, failures[:3]
        assert all(count > 0 for count in reads)

    def test_asyncio_mixed_read_write_stress(self, rng):
        """The same oracle through AsyncQueryEngine: a writer coroutine on
        the loop thread vs reader coroutines whose shard calls run on the
        worker pool."""
        engine = ShardedQueryEngine(Dataset.empty(2), shards=1, cache_size=0)
        snapshots = SnapshotManager(engine)
        oracle = {engine.epoch.epoch_id: frozenset()}
        live = set()
        failures = []

        async def drive():
            async with AsyncQueryEngine(engine, max_workers=4) as front:
                done = asyncio.Event()

                async def writer():
                    for _ in range(25):
                        for _ in range(5):
                            live.add(engine.insert((rng.random(), rng.random()), {1, 2}))
                            oracle[engine.epoch.epoch_id] = frozenset(live)
                            await asyncio.sleep(0)
                        for victim in rng.sample(sorted(live), 2):
                            engine.delete(victim)
                            live.discard(victim)
                            oracle[engine.epoch.epoch_id] = frozenset(live)
                            await asyncio.sleep(0)
                    done.set()

                async def reader():
                    count = 0
                    while not done.is_set() or count == 0:
                        # Pinning and opening the query in one loop step:
                        # both read the same published map.
                        snapshot = snapshots.pin()
                        found = await front.query(Rect.full(2), [1, 2])
                        got = [obj.oid for obj in found]
                        pinned = [
                            obj.oid
                            for obj in snapshot.query(Rect.full(2), [1, 2])
                        ]
                        expected = oracle[snapshot.epoch_id]
                        if set(got) != expected or got != sorted(expected) or pinned != got:
                            failures.append((snapshot.epoch_id, got, pinned))
                            break
                        snapshots.release(snapshot)
                        count += 1

                await asyncio.gather(writer(), *(reader() for _ in range(4)))

        asyncio.run(drive())
        assert not failures, failures[:3]
