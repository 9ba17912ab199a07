"""Online shard maintenance: bounds refresh, rebalancing, cutover isolation.

Pins the satellite bug fix from the dynamization PR — ``shard_bounds``
computed once at build time went stale after inserts, so the fan-out pruned
away shards that now owned matching objects — plus the rebalance machinery
layered on the copy-on-write :class:`~repro.service.sharding.ShardMap`.
"""

import asyncio
import random

import pytest

from repro.costmodel import CostCounter
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect
from repro.service.async_engine import AsyncQueryEngine
from repro.service.sharding import REBALANCE_THRESHOLD, ShardedQueryEngine
from repro.service.snapshots import SnapshotManager

from helpers import random_dataset


@pytest.fixture
def rng():
    return random.Random(13)


def _clustered_engine(rng, shards=2, **kwargs):
    """Engine over a dataset confined to [0, 1]^2 so any far-away insert
    lands outside every build-time shard bound."""
    dataset = random_dataset(rng, 40, coord_range=1.0)
    return ShardedQueryEngine(dataset, shards=shards, cache_size=16, **kwargs)


FAR_RECT = Rect((49.0, 49.0), (51.0, 51.0))


class TestBoundsRefresh:
    def test_insert_outside_old_bounds_is_found(self, rng):
        """Regression: write-then-query outside the build-time bounds.

        Before the fix the pruning step dropped every shard whose *stale*
        bounds missed the query rect, so the new object was unreachable.
        """
        engine = _clustered_engine(rng)
        old_bounds = engine.shard_bounds
        assert all(b is not None and b.hi[0] <= 1.0 for b in old_bounds)
        oid = engine.insert((50.0, 50.0), {1, 2})
        got = engine.query(FAR_RECT, [1, 2])
        assert [obj.oid for obj in got] == [oid]
        # The published map's bounds now cover the new point.
        assert any(
            b is not None and b.contains_point((50.0, 50.0))
            for b in engine.shard_bounds
        )

    def test_async_pruning_path_sees_refreshed_bounds(self, rng):
        """The async fan-out prunes from the pinned map's bounds; it must
        observe the same refreshed bounds as the sequential path."""
        engine = _clustered_engine(rng)
        oid = engine.insert((50.0, 50.0), {1, 2})

        async def go():
            async with AsyncQueryEngine(engine) as service:
                return await service.query(FAR_RECT, [1, 2])

        got = asyncio.run(go())
        assert [obj.oid for obj in got] == [oid]

    def test_epoch_keyed_cache_never_serves_stale_results(self, rng):
        """A cached merged result dies with its epoch: the same rect after
        an insert must include the new object, not the cached answer."""
        engine = _clustered_engine(rng)
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        before = engine.query(rect, [1])
        again = engine.query(rect, [1])
        assert again == before  # cache hit within one epoch is fine
        oid = engine.insert((0.5, 0.5), {1})
        after = engine.query(rect, [1])
        assert oid in {obj.oid for obj in after}
        assert len(after) == len(before) + 1


class TestRebalance:
    def test_skewed_inserts_trigger_online_rebalance(self, rng):
        """Hammering one corner overloads its shard until the imbalance
        check fires; results stay exact throughout."""
        engine = _clustered_engine(rng)
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        baseline = {obj.oid for obj in engine.query(rect, [1, 2])}
        inserted = set()
        for _ in range(120):
            point = (rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05))
            inserted.add(engine.insert(point, {1, 2}))
        stats = engine.stats()["shards"]
        assert stats["rebalances"] >= 1
        # Post-rebalance the load is spread within the configured factor.
        live = stats["live_sizes"]
        fair = sum(live) / len(live)
        assert max(live) <= REBALANCE_THRESHOLD * fair + 1.0
        got = {obj.oid for obj in engine.query(rect, [1, 2])}
        assert got == baseline | inserted

    def test_explicit_rebalance_changes_shard_count(self, rng):
        engine = _clustered_engine(rng, shards=2)
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        before = engine.query(rect, [1, 2])
        engine.rebalance(shards=4)
        assert engine.num_shards == 4
        assert len(engine.shard_engines) == 4
        assert engine.query(rect, [1, 2]) == before

    def test_rebalance_purges_tombstones(self, rng):
        engine = _clustered_engine(rng)
        victims = sorted(engine.epoch.live_oids())[:3]
        for oid in victims:
            engine.delete(oid)
        engine.rebalance()
        assert engine.epoch.tombstones == frozenset()
        assert set(victims).isdisjoint(engine.epoch.live_oids())

    def test_delete_validation_has_no_side_effects(self, rng):
        engine = _clustered_engine(rng)
        state = engine.epoch
        with pytest.raises(ValidationError):
            engine.delete(10**9)
        oid = sorted(engine.epoch.live_oids())[0]
        engine.delete(oid)
        with pytest.raises(ValidationError):
            engine.delete(oid)  # double delete
        # Exactly one epoch was published: the failing paths published none.
        assert engine.epoch.epoch_id == state.epoch_id + 1


class TestSnapshotCutover:
    def test_pinned_snapshot_survives_rebalance_cutover(self, rng):
        """A reader pinned before the cutover keeps answering from the old
        shard layout; the live view moves on underneath it."""
        engine = _clustered_engine(rng)
        manager = SnapshotManager(engine)
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        pinned = manager.pin()
        frozen = {obj.oid for obj in pinned.query(rect, [1, 2])}

        new_oid = engine.insert((0.5, 0.5), {1, 2})
        engine.rebalance(shards=3)
        assert pinned.age() >= 2  # insert + cutover both published epochs

        # Isolation: the pin answers exactly as before the churn ...
        assert {obj.oid for obj in pinned.query(rect, [1, 2])} == frozen
        # ... while the live engine serves the post-cutover layout.
        live = {obj.oid for obj in engine.query(rect, [1, 2])}
        assert live == frozen | {new_oid}
        manager.observe()
        assert manager.metrics.gauge("snapshot_age").value == pinned.age()

    def test_age_gauge_tracks_the_oldest_held_pin(self, rng):
        """``snapshot_age`` follows the oldest pin still held, not the last
        one touched; releasing a pin that is not held raises."""
        engine = _clustered_engine(rng)
        manager = SnapshotManager(engine)
        gauge = manager.metrics.gauge("snapshot_age")
        first = manager.pin()
        for i in range(3):
            engine.insert((0.1 * (i + 1), 0.5), {1, 2})
        second = manager.pin()
        assert second.age() == 0
        assert gauge.value == 3
        manager.release(second)
        assert gauge.value == 3
        manager.release(first)
        assert gauge.value == 0
        with pytest.raises(ValidationError):
            manager.release(first)
        assert gauge.value == 0
        assert manager.metrics.counter("snapshots_released_total").value == 2

    def test_snapshot_isolated_from_deletes_after_pin(self, rng):
        engine = _clustered_engine(rng)
        manager = SnapshotManager(engine)
        pinned = manager.pin()
        victim = sorted(engine.epoch.live_oids())[0]
        engine.delete(victim)
        assert victim in pinned.live_oids()
        assert victim not in engine.epoch.live_oids()


class TestPinnedReads:
    """A pinned map answers through the fan-out's per-shard step: validated
    like ``engine.query``, and charged exactly what an unbudgeted, uncached
    engine query on the same map is charged."""

    def test_pinned_read_validates_like_the_engine(self, rng):
        engine = _clustered_engine(rng, shards=3)
        pinned = SnapshotManager(engine).pin()
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        bad = [
            (rect, []),
            (rect, list(range(1, engine.max_k + 2))),
            (Rect((0.0,), (1.0,)), [1]),
        ]
        for query_rect, keywords in bad:
            with pytest.raises(ValidationError):
                engine.query(query_rect, keywords)
            with pytest.raises(ValidationError):
                pinned.query(query_rect, keywords)

    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_pinned_read_costs_what_the_engine_charges(self, rng, shards):
        dataset = random_dataset(rng, 160, coord_range=1.0)
        engine = ShardedQueryEngine(dataset, shards=shards, max_k=3, cache_size=0)
        manager = SnapshotManager(engine)
        queries = [
            (
                Rect(
                    (rng.uniform(-0.2, 0.8), rng.uniform(-0.2, 0.8)),
                    (rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)),
                ),
                rng.sample(range(1, 9), rng.randint(1, 3)),
            )
            for _ in range(10)
        ] + [(Rect((-60.0, -60.0), (60.0, 60.0)), [1]), (FAR_RECT, [1, 2])]

        def check():
            pinned = manager.pin()
            for rect, keywords in queries:
                read, served = CostCounter(), CostCounter()
                got = [obj.oid for obj in pinned.query(rect, keywords, read)]
                want = [obj.oid for obj in engine.query(rect, keywords, counter=served)]
                assert got == want, (shards, rect, keywords)
                assert read.snapshot() == served.snapshot(), (shards, rect, keywords)
            return pinned

        before = check()  # nothing written yet
        for _ in range(6):  # inside the build bounds, and far outside them
            engine.insert((rng.random(), rng.random()), rng.sample(range(1, 9), 2))
            engine.insert((rng.uniform(49.0, 51.0), rng.uniform(49.0, 51.0)), [1, 2])
        check()
        for oid in sorted(engine.epoch.live_oids())[::9]:
            engine.delete(oid)
        check()
        engine.rebalance()
        check()
        # The first pin still answers from the unwritten map.
        for rect, keywords in queries:
            assert [obj.oid for obj in before.query(rect, keywords)] == sorted(
                obj.oid
                for obj in dataset.objects
                if rect.contains_point(obj.point) and set(keywords) <= obj.doc
            )
