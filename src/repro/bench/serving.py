"""Async-serving benchmark core: fan-out wall-clock and mixed churn.

Importable machinery behind ``benchmarks/bench_async_serving.py`` and the
CLI's ``bench-serve`` subcommand.  Two experiments:

**Fan-out** (:func:`bench_fanout`).  A selective-rectangle workload is
served twice over the same sharded dataset by the same fan-out plan — with
the shards run inline by :class:`~repro.service.ShardedQueryEngine` and on
the worker pool of :class:`~repro.service.AsyncQueryEngine` — and
wall-clock is compared.  Unlike the cost-unit experiments, wall-clock is
the honest metric here.  Both paths prune the shards whose bounding box
misses the query rectangle (the per-row ``pruned_pct`` column) and split
the budget identically, so the speedup isolates the executor: overlapping
shard queries on the pool adds true parallelism only on a multi-core host,
while every pooled shard call pays a thread hand-off.  Both paths are
asserted result-identical per query.

**Mixed churn** (:func:`bench_mixed`).  Sustained concurrent read/write
traffic through :class:`~repro.service.AsyncQueryEngine` over a sharded
engine: one writer coroutine inserts and deletes on the event-loop thread
while several readers pin a snapshot and query through the front end, whose
shard calls run on the worker pool.  Reported: operations completed, shard
maps published, and the isolation check — every read must return exactly
the live set of the map it pinned (zero violations is an assertion, not a
statistic).
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from ..dataset import Dataset, make_objects
from ..geometry.rectangles import Rect
from ..service import AsyncQueryEngine, ShardedQueryEngine, SnapshotManager
from ..workloads.generators import WorkloadConfig, zipf_dataset

__all__ = ["bench_fanout", "bench_mixed", "selective_workload", "run_serving_bench"]


def selective_workload(
    num_queries: int, seed: int, side: float = 0.12, vocabulary: int = 24
) -> List[Tuple[Rect, List[int]]]:
    """Small-rectangle queries (most miss most shards' bounding boxes)."""
    rng = random.Random(seed)
    workload = []
    for _ in range(num_queries):
        a = rng.uniform(0.0, 1.0 - side)
        c = rng.uniform(0.0, 1.0 - side)
        words = rng.sample(range(1, vocabulary + 1), 2)
        workload.append((Rect((a, c), (a + side, c + side)), words))
    return workload


def _dataset(num_objects: int, seed: int = 7, vocabulary: int = 24) -> Dataset:
    return zipf_dataset(
        WorkloadConfig(
            num_objects=num_objects, vocabulary=vocabulary, seed=seed
        )
    )


def bench_fanout(
    num_objects: int,
    num_queries: int,
    shards: int,
    budget: Optional[int],
    seed: int = 7,
    repeats: int = 3,
) -> Dict[str, Any]:
    """One row: inline vs pooled fan-out over the same workload.

    Caches are disabled on both engines so both serve every query; the
    best-of-``repeats`` wall-clock is reported for each path.  Raises if
    any query's result set differs between the two paths.
    """
    dataset = _dataset(num_objects, seed=seed)
    workload = selective_workload(num_queries, seed=seed + 1)
    seq_engine = ShardedQueryEngine(dataset, shards=shards, cache_size=0)
    conc_engine = ShardedQueryEngine(dataset, shards=shards, cache_size=0)

    seq_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        seq_results = seq_engine.batch(workload, budget=budget)
        seq_s = min(seq_s, time.perf_counter() - start)

    async def concurrent() -> List:
        async with AsyncQueryEngine(conc_engine) as engine:
            return await engine.batch(workload, budget=budget)

    conc_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        conc_results = asyncio.run(concurrent())
        conc_s = min(conc_s, time.perf_counter() - start)

    for (rect, words), seq, conc in zip(workload, seq_results, conc_results):
        if seq != conc:
            raise AssertionError(
                f"fan-out mismatch for rect={rect.lo}->{rect.hi} words={words}"
            )

    slices = [
        s
        for record in conc_engine.records
        if record.strategy == "sharded"
        for s in record.shards
    ]
    pruned = sum(1 for s in slices if s["strategy"] == "pruned")
    return {
        "shards": shards,
        "budget": budget if budget is not None else "inf",
        "queries": num_queries,
        "seq_ms": round(seq_s * 1000.0, 1),
        "conc_ms": round(conc_s * 1000.0, 1),
        "speedup": round(seq_s / conc_s, 2) if conc_s > 0 else float("inf"),
        "pruned_pct": round(100.0 * pruned / max(len(slices), 1), 1),
    }


def bench_mixed(
    num_objects: int = 600,
    batches: int = 20,
    batch_size: int = 25,
    readers: int = 4,
    seed: int = 11,
) -> Dict[str, Any]:
    """Sustained mixed read/write churn through the async front end.

    One writer coroutine runs ``batches`` write batches on the event-loop
    thread — ``batch_size`` inserts, then deletes of a sample of live
    objects, yielding after every write — while ``readers`` query loops run
    through an :class:`~repro.service.AsyncQueryEngine` over a
    4-shard :class:`~repro.service.ShardedQueryEngine`.  Each read pins a
    snapshot and opens its query in the same loop step, so both see one
    shard map; the answer must equal the pinned map's live set and the
    snapshot's own answer — an isolation violation raises.
    """
    rng = random.Random(seed)
    # Every object carries {1, 2}: a [1, 2] query over the full rectangle
    # reports exactly the live set, which is the isolation oracle below.
    dataset = Dataset(
        make_objects(
            [(rng.random(), rng.random()) for _ in range(num_objects)],
            [{1, 2, rng.randint(3, 6)} for _ in range(num_objects)],
        )
    )
    engine = ShardedQueryEngine(dataset, shards=4)
    snapshots = SnapshotManager(engine)
    live = set(range(num_objects))
    everything = Rect.full(2)
    reads = 0
    start = time.perf_counter()

    async def writer() -> None:
        for _ in range(batches):
            for _ in range(batch_size):
                doc = {1, 2, rng.randint(3, 6)}
                live.add(engine.insert((rng.random(), rng.random()), doc))
                await asyncio.sleep(0)
            for oid in rng.sample(sorted(live), min(batch_size // 2, len(live))):
                engine.delete(oid)
                live.discard(oid)
                await asyncio.sleep(0)

    async def reader(front: AsyncQueryEngine, done: asyncio.Event) -> None:
        nonlocal reads
        while not done.is_set():
            snapshot = snapshots.pin()
            found = await front.query(everything, [1, 2])
            got = [obj.oid for obj in found]
            if len(got) != len(set(got)):
                raise AssertionError("duplicate oids in a read")
            if set(got) != snapshot.live_oids():
                raise AssertionError("read inconsistent with its pinned map")
            if got != [obj.oid for obj in snapshot.query(everything, [1, 2])]:
                raise AssertionError("read differs from its snapshot's answer")
            snapshots.release(snapshot)
            reads += 1

    async def drive() -> None:
        async with AsyncQueryEngine(engine) as front:
            done = asyncio.Event()
            tasks = [
                asyncio.ensure_future(reader(front, done)) for _ in range(readers)
            ]
            await writer()
            done.set()
            await asyncio.gather(*tasks)

    asyncio.run(drive())
    elapsed = time.perf_counter() - start
    return {
        "readers": readers,
        "writes": batches,
        "reads": reads,
        "epochs": engine.epoch.epoch_id,
        "live_objects": len(engine),
        "elapsed_ms": round(elapsed * 1000.0, 1),
        "violations": 0,  # a violation raises inside the readers
    }


def run_serving_bench(
    quick: bool = False,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """The full (or quick smoke) configuration; returns (fanout rows, mixed)."""
    if quick:
        rows = [
            bench_fanout(300, 20, shards, budget=256, repeats=1)
            for shards in (2, 4)
        ]
        mixed = bench_mixed(num_objects=120, batches=5, batch_size=10)
    else:
        rows = [
            bench_fanout(2000, 80, shards, budget)
            for shards in (2, 4, 8)
            for budget in (None, 512)
        ]
        mixed = bench_mixed()
    return rows, mixed
