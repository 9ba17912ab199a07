"""The four workloads: seeded inputs, the engine each one serves, its load.

Each workload's corpus (the dataset, and serve-hot's query pool) comes from
the fixed ``CORPUS_SEED``; its operations come from ``random.Random(seed)``.
Runs with different seeds therefore differ in their traffic, not in their
corpus: a different random corpus moves the tail of the query cost by up to
a tenth, which would hide regressions of that size.  The traffic is
stratified: every window holds each kind of operation, each keyword
combination and each pool query in its exact expected share, and spreads
the square sizes evenly over their range; the seed picks the queries within
those strata and their order.  Drawn independently instead, the mix of a
window moved its p99 read time by 9.6% from seed to seed on fused-lowout,
against 2.8% for repeated runs of one seed.  The program sees only the
generated dataset and operations.  Keyword ids are Zipf frequency ranks
(keyword 1 is the most frequent), as produced by
:func:`repro.workloads.zipf_dataset`.

A workload is built (engine construction plus a fixed warm-up), then driven
through an untraced window of ``window_ops`` operations and a traced window
of ``traced_ops``, so two versions of the program do the same work.  Each
window's operations are generated before it starts and continue one seeded
stream: the traced window serves new operations, not a replay.  Untraced
windows time each operation in process CPU time, scaled to the reference
machine speed chunk by chunk (:mod:`calibrate`), and also on the wall clock.
Every ``SAMPLE_EVERY``-th read's answer is logged for the brute-force oracle
in :mod:`oracle`, which runs after the windows.
"""

from __future__ import annotations

import asyncio
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BudgetExceeded
from repro.geometry.rectangles import Rect
from repro.service import AsyncQueryEngine, QueryEngine, ShardedQueryEngine
from repro.telemetry import EventLog, SLOMonitor, TailSampler
from repro.workloads import WorkloadConfig, zipf_dataset
from repro.workloads.generators import zipf_document

from calibrate import Calibrator, chunk_factors
from layers import REQUEST_ID

VOCABULARY = 64
ZIPF_WEIGHTS = [1.0 / rank for rank in range(1, VOCABULARY + 1)]
CORPUS_SEED = 2023
SAMPLE_EVERY = 20
WARMUP_READS = 300
#: CPU seconds of load between two calibration kernel runs.
CHUNK_S = 0.15

Query = Tuple[Rect, Tuple[int, ...]]


def make_dataset(objects: int, rng: random.Random):
    return zipf_dataset(
        WorkloadConfig(
            num_objects=objects, vocabulary=VOCABULARY, doc_min=1, doc_max=5,
            seed=rng.randrange(2**31),
        )
    )


def balanced(rng: random.Random, choices: Sequence, count: int) -> list:
    """``count`` picks from ``choices``, each as often as ``count`` allows
    and the remainder without repeats, in random order."""
    whole, extra = divmod(count, len(choices))
    picks = list(choices) * whole + rng.sample(list(choices), extra)
    rng.shuffle(picks)
    return picks


def even_uniform(rng: random.Random, bounds: Tuple[float, float], count: int) -> List[float]:
    """``count`` draws from U(bounds), one in each of ``count`` equal strata."""
    lo, hi = bounds
    width = (hi - lo) / max(count, 1)
    return [lo + (i + rng.random()) * width for i in range(count)]


def make_queries(
    rng: random.Random, count: int, ks: Sequence[int], ranks: Tuple[int, int],
    side: Tuple[float, float],
) -> List[Query]:
    """``count`` squares inside the unit square, with k distinct keywords
    from the frequency ranks ``ranks``, k picked from ``ks``.  Stratified:
    each k and each keyword combination takes its exact share of the
    queries, and each combination's sides are spread evenly over U(side)."""
    queries = []
    for k, with_k in Counter(balanced(rng, ks, count)).items():
        combos = list(combinations(range(ranks[0], ranks[1] + 1), k))
        for words, times in Counter(balanced(rng, combos, with_k)).items():
            for length in even_uniform(rng, side, times):
                x = rng.uniform(0.0, 1.0 - length)
                y = rng.uniform(0.0, 1.0 - length)
                queries.append((Rect((x, y), (x + length, y + length)), words))
    rng.shuffle(queries)
    return queries


#: The per-operation time lists scaled to the reference speed.
SCALED = ("read_s", "insert_s", "delete_s", "service_s")


@dataclass
class Window:
    """What one window measured.

    Operation times (``read_s``, ``insert_s``, ``delete_s``) and ``busy_s``,
    the time throughput is computed over, are CPU seconds at the reference
    speed, except in serve-hot's wall-clock window.  ``cpu_s`` is the raw
    process CPU time of the load; ``wall_s`` the reads' wall-clock latency.
    """

    cpu_s: float = 0.0
    busy_s: float = 0.0
    read_s: List[float] = field(default_factory=list)
    insert_s: List[float] = field(default_factory=list)
    delete_s: List[float] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)
    #: serve-hot only: each arrival's service time, and whether it was served.
    service_s: List[float] = field(default_factory=list)
    served_flags: List[bool] = field(default_factory=list)
    #: serve-hot's wall-clock window only: how late the generator sent each arrival.
    late_s: List[float] = field(default_factory=list)
    attempted: int = 0
    shed: int = 0
    raised: int = 0
    served: int = 0
    hits: int = 0
    cost_units: int = 0
    degraded: int = 0
    fallbacks: int = 0
    #: Strategy of every executed query, or of every shard slice when the
    #: engine fans out ("pruned" slices included).
    strategies: Counter = field(default_factory=Counter)
    backends: Counter = field(default_factory=Counter)
    slices: int = 0
    delta_len: List[int] = field(default_factory=list)
    tombstones: List[int] = field(default_factory=list)
    rebalances: int = 0
    rebalance_s: float = 0.0
    #: Chunk boundaries: (kernel seconds, load CPU so far, list lengths).
    marks: List[Tuple[float, float, Tuple[int, ...]]] = field(default_factory=list)

    def observe(self, record) -> None:
        """Fold one served read's :class:`QueryRecord` into the window."""
        self.served += 1
        self.cost_units += record.cost.get("total", 0)
        if record.cache == "hit":
            self.hits += 1
            return
        self.degraded += record.degraded
        self.fallbacks += len(record.fallbacks)
        self.backends[record.backend] += 1
        if record.shards:
            self.strategies.update(s["strategy"] for s in record.shards)
            self.slices += len(record.shards)
        else:
            self.strategies[record.strategy] += 1

    def failed(self, error: BaseException) -> None:
        """Count an operation that raised; show the first one."""
        if not self.raised:
            print(f"operation raised: {error!r}", file=sys.stderr)
        self.raised += 1

    def mark(self, kernel_s: float) -> None:
        lengths = tuple(len(getattr(self, name)) for name in SCALED)
        self.marks.append((kernel_s, self.cpu_s, lengths))

    def rescale(self) -> None:
        """Scale each chunk's times by its calibration factor."""
        factors = chunk_factors([kernel for kernel, _cpu, _lengths in self.marks])
        for factor, (_k, cpu0, lo), (_k1, cpu1, hi) in zip(
            factors, self.marks, self.marks[1:]
        ):
            self.busy_s += (cpu1 - cpu0) * factor
            for name, start, end in zip(SCALED, lo, hi):
                values = getattr(self, name)
                values[start:end] = [value * factor for value in values[start:end]]


class Chunks:
    """Runs the calibration kernel between chunks of a window's load."""

    def __init__(self, win: Window, calibrator: Calibrator):
        self.win = win
        self.calibrator = calibrator
        win.mark(calibrator.measure())
        self.start = process_time()

    def tick(self) -> None:
        """Call after each operation; closes the chunk once it is long enough."""
        if process_time() - self.start >= CHUNK_S:
            self._close()

    def _close(self) -> None:
        self.win.cpu_s += process_time() - self.start
        self.win.mark(self.calibrator.measure())
        self.start = process_time()

    def finish(self) -> None:
        self._close()
        self.win.rescale()


class Workload:
    """Inputs from a seed; ``build``; fixed-size windows; the oracle ``log``.

    ``window_ops`` and ``traced_ops`` are the untraced and the traced
    window's lengths in operations.  The untraced window is sized to take
    about four seconds on the reference machine, except where the workload
    says why not.  ``writes`` and ``budgeted`` say which of the
    workload-scoped end-to-end metrics apply: write latency, and the share
    of degraded reads.
    """

    name = ""
    window_ops = 0
    traced_ops = 0
    writes = False
    budgeted = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.engine = None
        #: The structured event log, on the workloads that wire one.
        self.events: Optional[EventLog] = None
        self.log: List[tuple] = []
        self.cursor = 0

    def base_objects(self):
        return [(obj.oid, obj.point, obj.doc) for obj in self.dataset.objects]

    def close(self) -> None:
        self.engine = None

    def window(self, count: int, calibrator: Calibrator) -> Window:
        """Serve the next ``count`` operations of the stream."""
        ops = self._ops(count)
        win = Window()
        chunks = Chunks(win, calibrator)
        self._drive(ops, win, chunks)
        chunks.finish()
        return win

    def traced_window(self, count: int, calibrator: Calibrator) -> Window:
        """The traced window: :meth:`window`, unless the workload says otherwise."""
        return self.window(count, calibrator)

    def _ops(self, count: int) -> list:
        raise NotImplementedError

    def _drive(self, ops: list, win: Window, chunks: Chunks) -> None:
        raise NotImplementedError

    def _sample(self, index: int, query: Query, result) -> None:
        if index % SAMPLE_EVERY == 0:
            rect, words = query
            self.log.append(
                ("read", rect.lo, rect.hi, words, [obj.oid for obj in result])
            )

    def _read(self, engine, index: int, query: Query, win: Window) -> None:
        """One closed-loop read: timed, observed, sampled for the oracle."""
        REQUEST_ID.set(index)
        wall = perf_counter()
        start = process_time()
        try:
            result = engine.query(*query)
        except Exception as error:  # the load must go on; the failure counts
            win.failed(error)
            return
        win.read_s.append(process_time() - start)
        win.wall_s.append(perf_counter() - wall)
        win.observe(engine.last_record)
        self._sample(index, query, result)


class ClosedReads(Workload):
    """One client, closed loop, unique queries through a plain QueryEngine."""

    objects = 16_000
    ks: Sequence[int] = ()
    ranks = (1, 1)
    side = (0.0, 0.0)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.dataset = make_dataset(self.objects, random.Random(CORPUS_SEED))
        self.warm = self._ops(WARMUP_READS)

    def _ops(self, count: int) -> List[Query]:
        return make_queries(self.rng, count, self.ks, self.ranks, self.side)

    def build(self) -> None:
        self.engine = QueryEngine(self.dataset, max_k=max(self.ks), backend="auto")
        for query in self.warm:
            self.engine.query(*query)

    def _drive(self, ops: List[Query], win: Window, chunks: Chunks) -> None:
        engine = self.engine
        for query in ops:
            index = self.cursor
            self.cursor += 1
            win.attempted += 1
            self._read(engine, index, query, win)
            chunks.tick()


class FusedLowOut(ClosedReads):
    """Mid-frequency keyword pairs, mid-size squares: the paper's regime."""

    name = "fused-lowout"
    # Whole multiples of the 78 keyword pairs, so each takes an equal share.
    window_ops = 2_730
    traced_ops = 624
    ks = (2,)
    ranks = (4, 16)
    side = (0.2, 0.35)


class ReportHighOut(ClosedReads):
    """Frequent keywords, large squares: per-result reporting dominates."""

    name = "report-highout"
    # Whole multiples of 112: half the queries over the 8 single keywords,
    # half over the 28 pairs, each taking an equal share.
    window_ops = 1_680
    traced_ops = 448
    ks = (1, 2)
    ranks = (1, 8)
    side = (0.4, 0.8)


class ServeHot(Workload):
    """Open loop over a Zipf-weighted pool of hot queries.

    Arrival ``i`` of a window is due ``i / rate`` seconds after the window
    starts, whatever happened to earlier arrivals.  The two windows drive
    the async front end differently.

    The untraced window, which gives the end-to-end metrics, runs on a
    virtual clock: the front end serves one request at a time, in arrival
    order, and each takes the CPU time it really used (at the reference
    speed).  A request's latency runs from when it was due to when the
    server finished it, so a slow request (a collector pause included)
    delays every request queued behind it.  The clock is virtual because on
    a shared virtual machine the wall clock also counts the time the
    hypervisor gives the CPU to someone else: measured on the wall clock,
    this window's p99 moved by a quarter from run to run, with the number
    of such stalls that happened to land in it.

    The traced window runs on the wall clock: the generator sleeps on the
    event loop until each arrival is due and starts it as its own task, so
    requests overlap in the front end as independent users' would,
    admission control holds concurrent reservations, and every wait (the
    executor hand-off, a lock, a sleep) counts in a request's latency,
    measured from when it was due.  Its latencies are per-layer metrics.
    """

    name = "serve-hot"
    window_ops = 10_800
    traced_ops = 1_500  # seven and a half seconds of arrivals
    budgeted = True
    objects = 8_000
    pool_size = 400
    rate = 200.0

    def __init__(self, seed: int):
        super().__init__(seed)
        corpus = random.Random(CORPUS_SEED)
        self.dataset = make_dataset(self.objects, corpus)
        self.pool = make_queries(corpus, self.pool_size, (1, 2, 2, 3), (1, 24), (0.05, 0.4))
        self.front: Optional[AsyncQueryEngine] = None

    def _ops(self, count: int) -> List[Query]:
        """Pool query ``r`` (from 1) with Zipf(1) weight ``1 / r``: each
        takes the whole part of its expected count, the remainder is drawn
        by weight, and the order is random."""
        weights = [1.0 / rank for rank in range(1, len(self.pool) + 1)]
        expected = [count * weight / sum(weights) for weight in weights]
        ops = [query for query, share in zip(self.pool, expected) for _ in range(int(share))]
        ops += self.rng.choices(self.pool, weights=[share % 1 for share in expected],
                                k=count - len(ops))
        self.rng.shuffle(ops)
        return ops

    def build(self) -> None:
        self.events = EventLog()
        self.engine = ShardedQueryEngine(
            self.dataset, shards=4, max_k=3, cache_size=256, default_budget=512,
            events=self.events,
        )
        self.front = AsyncQueryEngine(
            self.engine, max_inflight_cost=8192, max_workers=1, events=self.events,
            sampler=TailSampler(), slo=SLOMonitor(p99_cost_target=2048),
        )
        asyncio.run(self._warm())

    async def _warm(self) -> None:
        for query in self.pool:
            await self.front.query(*query)

    def close(self) -> None:
        if self.front is not None:
            self.front.close()
        self.front = None
        super().close()

    def window(self, count: int, calibrator: Calibrator) -> Window:
        win = super().window(count, calibrator)
        free_at = 0.0  # virtual time at which the server is next idle
        for arrival, (spent, served) in enumerate(zip(win.service_s, win.served_flags)):
            due = arrival / self.rate
            free_at = max(due, free_at) + spent
            if served:
                win.read_s.append(free_at - due)
        return win

    def _drive(self, ops: List[Query], win: Window, chunks: Chunks) -> None:
        asyncio.run(self._serve_in_turn(ops, win, chunks))

    async def _serve_in_turn(self, ops: List[Query], win: Window, chunks: Chunks) -> None:
        for query in ops:
            index = self.cursor
            self.cursor += 1
            win.attempted += 1
            wall = perf_counter()
            start = process_time()
            result = await self._request(index, query, win)
            win.service_s.append(process_time() - start)
            win.served_flags.append(result is not None)
            if result is not None:
                win.wall_s.append(perf_counter() - wall)
                self._served(index, query, result, win)
            chunks.tick()

    def traced_window(self, count: int, calibrator: Calibrator) -> Window:
        """The wall-clock open loop.  No calibration kernel runs: it would
        stall the event loop."""
        ops = self._ops(count)
        win = Window()
        start = process_time()
        asyncio.run(self._serve_on_time(ops, win))
        win.cpu_s = process_time() - start
        win.read_s = list(win.wall_s)
        return win

    async def _serve_on_time(self, ops: List[Query], win: Window) -> None:
        loop = asyncio.get_running_loop()
        tasks = []
        first_due = perf_counter()
        for arrival, query in enumerate(ops):
            due = first_due + arrival / self.rate
            pause = due - perf_counter()
            if pause > 0:
                await asyncio.sleep(pause)
            win.late_s.append(perf_counter() - due)
            index = self.cursor
            self.cursor += 1
            win.attempted += 1
            tasks.append(loop.create_task(self._on_time(index, query, due, win)))
        await asyncio.gather(*tasks)
        win.busy_s = perf_counter() - first_due

    async def _on_time(self, index: int, query: Query, due: float, win: Window) -> None:
        result = await self._request(index, query, win)
        if result is not None:
            win.wall_s.append(perf_counter() - due)
            self._served(index, query, result, win)

    async def _request(self, index: int, query: Query, win: Window) -> Optional[tuple]:
        """One request through the front end: its answer, or None when it
        was shed or raised."""
        REQUEST_ID.set(index)
        try:
            return await self.front.query(*query)
        except BudgetExceeded:
            win.shed += 1
        except Exception as error:  # the load must go on; the failure counts
            win.failed(error)
        return None

    def _served(self, index: int, query: Query, result: tuple, win: Window) -> None:
        # The front end returns without yielding to the loop once the record
        # is written, and nothing has awaited since: the record is this one's.
        win.observe(self.engine.last_record)
        self._sample(index, query, result)


class Churn(Workload):
    """Reads beside inserts (mostly into a hot corner) and deletes."""

    name = "churn"
    #: About thirteen seconds on the reference machine: the hot corner forces
    #: the first rebalance after about 2,800 operations, so exactly one
    #: rebalance stall lands in the untraced window, away from its edges.
    window_ops = 4_800
    traced_ops = 600
    writes = True
    budgeted = True
    objects = 4_000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.dataset = make_dataset(self.objects, random.Random(CORPUS_SEED))
        self.warm = self._read_queries(WARMUP_READS)

    def _read_queries(self, count: int) -> List[Query]:
        return make_queries(self.rng, count, (1, 2, 2, 3), (4, 16), (0.05, 0.35))

    def _ops(self, count: int) -> List[tuple]:
        """60% reads, 30% inserts, 10% deletes, in random order."""
        kinds = balanced(self.rng, ["read"] * 6 + ["insert"] * 3 + ["delete"], count)
        reads = iter(self._read_queries(kinds.count("read")))
        # Nine inserts in ten land in the hot corner, the rest anywhere in a
        # square reaching past the build bounds.
        places = iter(balanced(self.rng, [(0.0, 0.25)] * 9 + [(-0.05, 1.05)],
                               kinds.count("insert")))
        ops = []
        for kind in kinds:
            if kind == "read":
                ops.append(("read", next(reads)))
            elif kind == "insert":
                lo, hi = next(places)
                point = (self.rng.uniform(lo, hi), self.rng.uniform(lo, hi))
                doc = zipf_document(
                    self.rng, VOCABULARY, self.rng.randint(1, 5), ZIPF_WEIGHTS
                )
                ops.append(("insert", point, frozenset(doc)))
            else:
                # The live object to delete is picked at run time, as this
                # share of the live list: ids of inserted objects are not
                # known yet.
                ops.append(("delete", self.rng.random()))
        return ops

    def build(self) -> None:
        self.engine = ShardedQueryEngine(
            self.dataset, shards=4, max_k=3, cache_size=128, default_budget=512,
        )
        for query in self.warm:
            self.engine.query(*query)
        self.live = [obj.oid for obj in self.dataset.objects]
        self.live_at: Dict[int, int] = {oid: i for i, oid in enumerate(self.live)}
        self.log = []

    def _forget(self, oid: int) -> None:
        """Drop ``oid`` from the live list in O(1) (swap with the last)."""
        index = self.live_at.pop(oid)
        last = self.live.pop()
        if last != oid:
            self.live[index] = last
            self.live_at[last] = index

    def _drive(self, ops: List[tuple], win: Window, chunks: Chunks) -> None:
        engine = self.engine
        for op in ops:
            index = self.cursor
            self.cursor += 1
            win.attempted += 1
            if op[0] == "read":
                state = engine.epoch
                win.delta_len.append(sum(len(delta) for delta in state.deltas))
                win.tombstones.append(len(state.tombstones))
                self._read(engine, index, op[1], win)
            else:
                self._write(engine, index, op, win)
            chunks.tick()

    def _write(self, engine, index: int, op: tuple, win: Window) -> None:
        datasets = engine.epoch.datasets
        REQUEST_ID.set(index)
        start = process_time()
        try:
            if op[0] == "insert":
                oid = engine.insert(op[1], op[2])
            else:
                oid = self.live[int(op[1] * len(self.live))]
                engine.delete(oid)
        except Exception as error:  # the load must go on; the failure counts
            win.failed(error)
            return
        took = process_time() - start
        if engine.epoch.datasets is not datasets:
            win.rebalances += 1
            win.rebalance_s += took
        if op[0] == "insert":
            win.insert_s.append(took)
            self.live_at[oid] = len(self.live)
            self.live.append(oid)
            self.log.append(("insert", oid, op[1], op[2]))
        else:
            win.delete_s.append(took)
            self._forget(oid)
            self.log.append(("delete", oid))


WORKLOADS = {cls.name: cls for cls in (FusedLowOut, ReportHighOut, ServeHot, Churn)}
