"""The async front end hands every outcome to the engine's one record sink.

Sheds and served queries alike are recorded on the event-loop thread, so a
shared :class:`~repro.telemetry.EventLog` (whose ``emit`` takes no lock)
sees one writer, and the sampler and SLO monitor the front end attaches
are live attachments of the engine that pickling drops.  Only execute
steps run on the pool, and they write nothing shared, so concurrent
queries' calls on one shard overlap.
"""

import asyncio
import pickle
import random
import sys
import threading
from collections import Counter

from repro.geometry.rectangles import Rect
from repro.service import (
    AsyncQueryEngine,
    QueryEngine,
    ShardedQueryEngine,
    SnapshotManager,
)
from repro.telemetry import EventLog, SLOMonitor, TailSampler
from repro.workloads import WorkloadConfig, random_rect, zipf_dataset

from helpers import random_dataset


def _workload(rng, count):
    queries = []
    for _ in range(count):
        a, b = sorted(rng.uniform(0, 10) for _ in range(2))
        c, d = sorted(rng.uniform(0, 10) for _ in range(2))
        queries.append((Rect((a, c), (b, d)), rng.sample(range(1, 9), 2)))
    return queries


def test_plain_engine_records_on_the_loop_under_stress(rng):
    """A concurrent batch over a plain engine, more workers than cores and
    a tiny switch interval: every record is written on the loop thread,
    the shared log's sequence numbers stay gapless, and every outcome has
    its one event."""
    events = EventLog(capacity=10_000)
    engine = QueryEngine(
        random_dataset(rng, 200), cache_size=8, keep_records=10_000, events=events
    )
    workload = _workload(rng, 300)
    threads = []
    sink = engine._record

    def record(*args):
        threads.append(threading.current_thread())
        sink(*args)

    engine._record = record
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        async def drive():
            async with AsyncQueryEngine(
                engine, max_inflight_cost=1500, max_workers=4, events=events
            ) as front:
                return await asyncio.wait_for(front.batch(workload, budget=300), 60)

        results = asyncio.run(drive())
    finally:
        sys.setswitchinterval(interval)
    shed = sum(result is None for result in results)
    assert 0 < shed < len(workload)
    assert set(threads) == {threading.main_thread()}
    assert [event.seq for event in events.events()] == list(range(1, len(events) + 1))
    counts = events.counts()
    assert counts["query_shed"] == shed
    assert counts["query_finish"] == len(workload) - shed == engine.stats()["queries"]


def test_pickling_drops_the_attached_sampler_and_slo(rng):
    dataset = random_dataset(rng, 60)
    for engine in (QueryEngine(dataset), ShardedQueryEngine(dataset, shards=2)):
        front = AsyncQueryEngine(
            engine, events=EventLog(), sampler=TailSampler(), slo=SLOMonitor()
        )
        front.close()
        assert engine.sampler is front.sampler and engine.slo is front.slo
        clone = pickle.loads(pickle.dumps(engine))
        assert (clone.events, clone.sampler, clone.slo) == (None, None, None)
        clone.query(Rect((0.0, 0.0), (5.0, 5.0)), [1, 2])  # feeds nothing
        assert front.sampler.stats()["offered"] == 0
        assert front.slo.report()["observed"] == 0


def test_same_shard_calls_overlap_on_the_pool(monkeypatch):
    """Four workers, a tiny switch interval and 300 concurrent queries over
    an ``auto`` S=3 engine: calls on one shard engine run at once, and the
    records still equal an inline twin's, per-slice backend included."""
    dataset = zipf_dataset(
        WorkloadConfig(num_objects=1500, vocabulary=16, doc_max=4, seed=2102)
    )
    rng = random.Random(2103)
    workload = [
        (random_rect(rng, 2, side=rng.choice((0.3, 0.6, 1.0))),
         rng.sample(range(1, 17), rng.randint(1, 3)))
        for _ in range(300)
    ]

    def build():
        return ShardedQueryEngine(
            dataset, shards=3, max_k=3, cache_size=0, keep_records=1000, backend="auto"
        )

    inline, pooled = build(), build()
    inline.batch(workload, budget=300)
    execute = QueryEngine._execute
    lock = threading.Lock()
    running, peak = Counter(), Counter()

    def counted(self, *args):
        with lock:
            running[id(self)] += 1
            peak[id(self)] = max(peak[id(self)], running[id(self)])
        try:
            return execute(self, *args)
        finally:
            with lock:
                running[id(self)] -= 1

    monkeypatch.setattr(QueryEngine, "_execute", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        async def drive():
            async with AsyncQueryEngine(pooled, max_workers=4) as front:
                return await asyncio.wait_for(front.batch(workload, budget=300), 120)

        asyncio.run(drive())
    finally:
        sys.setswitchinterval(interval)
    assert max(peak.values()) >= 2
    assert {record.query_id: record.to_dict() for record in pooled.records} == {
        record.query_id: record.to_dict() for record in inline.records
    }


def test_loop_thread_writes_beside_pooled_queries():
    """A writer coroutine inserts, deletes, rebalances once and pins and
    releases snapshots on the loop thread while 300 queries run their shard
    calls on four workers under a tiny switch interval: every event reaches
    the shared log from the main thread, its sequence numbers stay gapless,
    and each answer is the live set of the map its query pinned."""
    dataset = zipf_dataset(
        WorkloadConfig(num_objects=600, vocabulary=8, doc_max=3, seed=2201)
    )
    events = EventLog(capacity=100_000)
    engine = ShardedQueryEngine(dataset, shards=3, max_k=3, keep_records=1000)
    snapshots = SnapshotManager(engine, events=events)
    rng = random.Random(2202)
    workload = [
        (random_rect(rng, 2, side=rng.choice((0.2, 0.5, 1.0))),
         rng.sample(range(1, 9), rng.randint(1, 3)))
        for _ in range(300)
    ]
    threads = []
    emit = events.emit

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return emit(*args, **kwargs)

    events.emit = recorded
    mismatches = []
    maps = set()

    async def ask(front, rect, words, delay):
        for _ in range(delay):  # spread the queries over the writer's maps
            await asyncio.sleep(0)
        pinned = engine.epoch  # the plan opens in this same loop step
        maps.add(pinned.epoch_id)
        found = await front.query(rect, words, budget=300)
        live = [
            obj
            for shard_id, shard in enumerate(pinned.datasets)
            for obj in (*shard.objects, *pinned.deltas[shard_id])
            if obj.oid not in pinned.tombstones
        ]
        expected = sorted(
            obj.oid
            for obj in live
            if rect.contains_point(obj.point) and set(words) <= obj.doc
        )
        if [obj.oid for obj in found] != expected:
            mismatches.append((pinned.epoch_id, rect, words))

    async def writer():
        live = sorted(obj.oid for obj in dataset.objects)
        for step in range(120):
            if step == 60:
                engine.rebalance()
            elif step % 3 == 2:
                engine.delete(live.pop(rng.randrange(len(live))))
            else:
                words = rng.sample(range(1, 9), 2)
                live.append(engine.insert((rng.random(), rng.random()), words))
            if step % 10 == 0:
                snapshots.release(snapshots.pin())
            await asyncio.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        async def drive():
            async with AsyncQueryEngine(engine, max_workers=4, events=events) as front:
                await asyncio.wait_for(
                    asyncio.gather(
                        writer(),
                        *(
                            ask(front, rect, words, index // 2)
                            for index, (rect, words) in enumerate(workload)
                        ),
                    ),
                    120,
                )

        asyncio.run(drive())
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches, mismatches[:3]
    assert len(maps) > 50  # queries pinned maps all through the writes
    assert set(threads) == {threading.main_thread()}
    assert [event.seq for event in events.events()] == list(range(1, len(events) + 1))
    counts = events.counts()
    assert counts["shard_rebalance"] >= 1 and counts["snapshot_pin"] == 12
    assert counts["query_finish"] == len(workload)


def test_superseded_fanout_is_not_cached(rng):
    """A pooled query opens on map 0; on the loop thread an insert publishes
    map 1 and four queries are served inline before the pooled one
    finishes.  The pooled answer is map 0's, but it is not cached: every
    cached key carries the published epoch, so the stale answer evicts no
    live entry and each inline query hits when asked again."""
    dataset = random_dataset(rng, 120)
    engine = ShardedQueryEngine(dataset, shards=3, max_k=2, cache_size=4)
    pooled_rect, pooled_words = Rect((0.0, 0.0), (10.0, 10.0)), [1, 2]
    inline = [(Rect((i, i), (i + 5.0, i + 5.0)), [1]) for i in range(4)]
    expected = sorted(
        obj.oid
        for obj in dataset.objects
        if pooled_rect.contains_point(obj.point) and set(pooled_words) <= obj.doc
    )

    async def drive():
        async with AsyncQueryEngine(engine, max_workers=3) as front:
            pooled = asyncio.ensure_future(front.query(pooled_rect, pooled_words))
            await asyncio.sleep(0)  # the plan opens on map 0; its shards go to the pool
            assert engine.epoch.epoch_id == 0
            engine.insert((5.0, 5.0), [1, 2])
            for rect, words in inline:
                engine.query(rect, words)
            return await pooled

    found = asyncio.run(drive())
    assert [obj.oid for obj in found] == expected
    published = engine.epoch.epoch_id
    assert published == 1
    assert [key[0] for key in engine.cache._entries] == [published] * len(inline)
    for rect, words in inline:
        engine.query(rect, words)
        assert engine.last_record.cache == "hit", (rect, words)
