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
from repro.service import AsyncQueryEngine, QueryEngine, ShardedQueryEngine
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
