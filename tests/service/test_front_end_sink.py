"""The async front end hands every outcome to the engine's one record sink.

Sheds and served queries alike are recorded on the event-loop thread, so a
shared :class:`~repro.telemetry.EventLog` (whose ``emit`` takes no lock)
sees one writer, and the sampler and SLO monitor the front end attaches
are live attachments of the engine that pickling drops.
"""

import asyncio
import pickle
import sys
import threading

from repro.geometry.rectangles import Rect
from repro.service import AsyncQueryEngine, QueryEngine, ShardedQueryEngine
from repro.telemetry import EventLog, SLOMonitor, TailSampler

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
