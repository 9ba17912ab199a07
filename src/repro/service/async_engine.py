"""Concurrent async serving: admission control, shard fan-out, snapshots.

The synchronous engines serve one query at a time and assume a quiescent
index.  This module puts an :mod:`asyncio` front end above them that makes
three things safe and observable under concurrent mixed read/write traffic:

**Admission control** (:class:`AdmissionController`).  The same
:class:`~repro.costmodel.CostCounter` budget machinery that bounds a single
query's work bounds the *total in-flight* work: each query reserves its
budget's worth of cost units on admission and releases them on completion.
When the reservation would push the in-flight total past
``max_inflight_cost``, the counter's own :class:`~repro.errors.BudgetExceeded`
fires and the query is *shed* — refused up front with a
:class:`~repro.service.engine.QueryRecord` carrying ``reason="shed:admission"``
instead of being allowed to pile latency onto everything already running.

**Concurrent shard fan-out** (:class:`AsyncQueryEngine` over a
:class:`~repro.service.sharding.ShardedQueryEngine`).  The front end runs
the sharded engine's own fan-out plan (:class:`~repro.service.sharding.
Fanout`: pin, cache, prune, exact budget split, merge, finish) and changes
only the executor: the shards that run are dispatched to a worker pool,
one thread each, with per-shard locks serializing same-shard access.
Planning, merging and finishing stay on the event-loop thread.  The front
end holds no fan-out logic of its own, so a query served here gets the
same results, cost, slices and degraded flags as one served inline.

**Snapshot isolation** (:class:`AsyncDynamicIndex` over a
:class:`~repro.core.dynamic.DynamicOrpKw`).  Writers serialize behind an
:class:`asyncio.Lock` and each mutation publishes one immutable epoch;
readers pin a :class:`~repro.service.snapshots.Snapshot` and run lock-free
against it, so a rebuild mid-query can never surface a half-applied batch,
a duplicated oid, or an empty bucket window.

Everything CPU-bound runs in a shared :class:`~concurrent.futures.
ThreadPoolExecutor`; the event loop only validates, admits, merges, and
records.  Correctness is pinned differentially: under a quiesced writer the
async engine returns the synchronous engines' results and records.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..costmodel import CostCounter
from ..dataset import KeywordObject
from ..errors import BudgetExceeded, ValidationError
from ..geometry.rectangles import Rect
from ..telemetry.events import EventLog
from ..telemetry.sampler import TailSampler
from ..telemetry.slo import SLOMonitor, SloShed
from ..trace import MetricsRegistry
from .engine import QueryEngine, QueryRecord
from .sharding import Fanout, ShardedQueryEngine
from .snapshots import Snapshot, SnapshotManager

#: Reservation charged for an unbudgeted query (cost units).  Unbudgeted
#: queries have no a-priori work bound, so admission control needs *some*
#: stand-in to keep them from slipping past the throttle for free.
DEFAULT_RESERVATION = 256


class AdmissionController:
    """Bounded in-flight cost, enforced by the budget machinery itself.

    A :class:`~repro.costmodel.CostCounter` with ``budget=max_inflight_cost``
    holds the running reservation total: :meth:`admit` charges the query's
    reservation (its budget, or :data:`DEFAULT_RESERVATION` when
    unbudgeted) and lets the counter's own overflow check decide — the
    exact machinery, including the exception type, that per-query budgets
    use.  :meth:`release` returns the units when the query finishes.

    Thread-safe: admission happens on the event-loop thread, but releases
    may race in from executor callbacks, so a lock guards the counter.

    With an :class:`~repro.telemetry.SLOMonitor` attached (``slo=``), its
    graduated pressure signal shrinks the effective in-flight capacity
    *before* the reservation is charged: pressure 1 halves the capacity,
    pressure 2 quarters it.  A query refused that way raises
    :class:`~repro.telemetry.SloShed` (a ``BudgetExceeded`` subclass, so
    existing shed handling applies) whose ``reason`` names the objective
    that tripped — the attribution lands in the refused query's record.
    """

    def __init__(
        self,
        max_inflight_cost: Optional[int],
        slo: Optional[SLOMonitor] = None,
    ):
        if max_inflight_cost is not None and max_inflight_cost < 1:
            raise ValidationError(
                f"max_inflight_cost must be >= 1, got {max_inflight_cost}"
            )
        self.max_inflight_cost = max_inflight_cost
        self.slo = slo
        self._counter = CostCounter(budget=max_inflight_cost)
        self._lock = threading.Lock()
        self._inflight_queries = 0

    def admit(self, reservation: int) -> None:
        """Reserve ``reservation`` units or shed (:class:`BudgetExceeded`).

        The failing path rolls the charge back — a shed query must leave
        the in-flight total exactly as it found it.
        """
        with self._lock:
            if self.slo is not None and self.max_inflight_cost is not None:
                pressure = self.slo.pressure()
                if pressure:
                    # Graduated shed: half capacity at pressure 1, a
                    # quarter at pressure 2 (never below one unit).
                    effective = max(self.max_inflight_cost >> pressure, 1)
                    if self._counter.total + reservation > effective:
                        raise SloShed(
                            self.slo.shed_reason(),
                            self._counter.total + reservation,
                            effective,
                        )
            try:
                self._counter.charge("inflight_cost", reservation)
            except BudgetExceeded:
                self._counter.charge("inflight_cost", -reservation)
                raise
            self._inflight_queries += 1

    def release(self, reservation: int) -> None:
        """Return a completed (or failed) query's reserved units."""
        with self._lock:
            self._counter.charge("inflight_cost", -reservation)
            self._inflight_queries -= 1

    @property
    def inflight_cost(self) -> int:
        """Currently reserved cost units."""
        return self._counter.total

    @property
    def inflight_queries(self) -> int:
        """Currently admitted, not-yet-finished queries."""
        return self._inflight_queries


class AsyncQueryEngine:
    """Asyncio front end over a (sharded or plain) synchronous engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.service.engine.QueryEngine` or
        :class:`~repro.service.sharding.ShardedQueryEngine`.  Sharded
        engines run their fan-out plan with the shards on the pool; plain
        engines are served from the pool one query at a time (their caches
        and record deques are not thread-safe).
    max_inflight_cost:
        Admission-control bound on the summed budget reservations of all
        in-flight queries; ``None`` admits everything.
    max_workers:
        Worker-pool size; defaults to the shard count (or 1 unsharded).
    metrics:
        Registry for the serving gauges/counters (in-flight, admitted,
        shed); private by default.  The wrapped engine keeps feeding its
        own registry exactly as in synchronous serving (fan-out counters
        such as ``shards_pruned_total`` included).
    events:
        Shared :class:`~repro.telemetry.EventLog`; the front end emits
        ``query_shed`` here and attaches the log to the wrapped engine
        (when it has none) so the whole stack shares one event order.
    sampler:
        A :class:`~repro.telemetry.TailSampler`; every finished or shed
        query's record is offered, and records whose traces are not
        retained have ``record.trace`` dropped to keep unretained span
        trees from piling up in the record deque.
    slo:
        An :class:`~repro.telemetry.SLOMonitor`; fed every query outcome
        and handed to the :class:`AdmissionController` as the graduated
        shed signal.

    All public methods are coroutines and must run on one event loop; the
    wrapped engine's bookkeeping (cache, records, metrics) is only ever
    touched from that loop's thread or under per-shard locks.
    """

    def __init__(
        self,
        engine: Union[QueryEngine, ShardedQueryEngine],
        max_inflight_cost: Optional[int] = None,
        max_workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        sampler: Optional[TailSampler] = None,
        slo: Optional[SLOMonitor] = None,
    ):
        self.engine = engine
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        self.sampler = sampler
        self.slo = slo
        if events is not None and getattr(engine, "_events", None) is None:
            engine.attach_events(events)
        self.admission = AdmissionController(max_inflight_cost, slo=slo)
        self._sharded = isinstance(engine, ShardedQueryEngine)
        shards = engine.num_shards if self._sharded else 1
        self._pool = ThreadPoolExecutor(
            max_workers=shards if max_workers is None else max_workers,
            thread_name_prefix="repro-serve",
        )
        # One lock per shard (a plain engine is one shard): the planners keep
        # per-call state, so same-shard calls must never overlap.
        self._locks = [threading.Lock() for _ in range(shards)]

    # -- lifecycle ---------------------------------------------------------------

    async def __aenter__(self) -> "AsyncQueryEngine":
        return self

    async def __aexit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    # -- serving ----------------------------------------------------------------

    async def query(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int] = None,
        counter: Optional[CostCounter] = None,
    ) -> Tuple[KeywordObject, ...]:
        """Serve one query concurrently; same answers as the sync engines.

        Raises :class:`~repro.errors.BudgetExceeded` when admission control
        sheds the query (recorded with ``reason="shed:admission"`` in the
        wrapped engine's records); every *admitted* query returns exactly
        what the synchronous engine would return.
        """
        budget = (
            budget if budget is not None else self.engine.default_budget
        )
        reservation = budget if budget is not None else DEFAULT_RESERVATION
        try:
            self.admission.admit(reservation)
        except BudgetExceeded as exc:
            # SLO-driven sheds carry their objective as exc.reason; plain
            # admission sheds fall back to the generic reason.
            record = self._record_shed(
                rect, keywords, budget,
                reason=getattr(exc, "reason", "shed:admission"),
            )
            self._after_query(record, shed=True)
            raise
        self.metrics.counter("admitted_total").inc()
        self._meter_inflight()
        serve = self._query_sharded if self._sharded else self._query_plain
        try:
            results, record = await serve(rect, keywords, budget, counter)
        finally:
            self.admission.release(reservation)
            self._meter_inflight()
        self._after_query(record)
        return results

    async def batch(
        self,
        queries: Sequence[Tuple[Union[Rect, Sequence[float]], Sequence[int]]],
        budget: Optional[int] = None,
        counter: Optional[CostCounter] = None,
    ) -> List[Optional[Tuple[KeywordObject, ...]]]:
        """Serve a workload concurrently, preserving order.

        Shed queries come back as ``None`` (their refusal is already in the
        engine's records); other exceptions propagate.
        """

        async def one(spec):
            rect, keywords = spec
            try:
                return await self.query(rect, keywords, budget, counter)
            except BudgetExceeded:
                return None

        return list(await asyncio.gather(*(one(spec) for spec in queries)))

    # -- internals ---------------------------------------------------------------

    def _meter_inflight(self) -> None:
        self.metrics.gauge("inflight_cost").set(self.admission.inflight_cost)
        self.metrics.gauge("inflight_queries").set(
            self.admission.inflight_queries
        )

    def _record_shed(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int],
        reason: str = "shed:admission",
    ) -> QueryRecord:
        """Append a refused query's record (strategy ``shed``) and meter it."""
        self.metrics.counter("shed_total").inc()
        if reason != "shed:admission":
            self.metrics.counter("shed_slo_total").inc()
        try:
            rect = QueryEngine._coerce_rect(rect)
            lo, hi = rect.lo, rect.hi
        except ValidationError:
            lo = hi = ()
        record = QueryRecord(
            query_id=0,  # never served; ids belong to admitted queries
            rect_lo=lo,
            rect_hi=hi,
            keywords=tuple(keywords),
            strategy="shed",
            cache="bypass",
            budget=budget,
            reason=reason,
        )
        self.engine._records.append(record)
        if self.events is not None:
            self.events.emit(
                "query_shed",
                reason=reason,
                budget=budget,
                keywords=len(record.keywords),
            )
        return record

    def _after_query(self, record: Optional[QueryRecord], shed: bool = False) -> None:
        """Feed one finished (or shed) query into the SLO monitor and sampler.

        Runs on the event-loop thread only, after the admission release —
        the monitor's verdict therefore applies from the *next* admission
        decision onward.
        """
        if record is None:
            return
        if self.slo is not None:
            if shed:
                self.slo.observe_query(shed=True)
            else:
                self.slo.observe_query(
                    cost=record.cost.get("total", 0),
                    budget_exhausted=bool(record.fallbacks),
                )
        if self.sampler is not None and not self.sampler.offer(record):
            # Not retained: drop the span tree so unretained traces do not
            # accumulate in the record deque.
            record.trace = None

    async def _query_plain(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int],
        counter: Optional[CostCounter],
    ) -> Tuple[Tuple[KeywordObject, ...], QueryRecord]:
        """One-at-a-time serve of an unsharded engine from the pool.

        Returns the results *and* their record, read back while the engine
        lock is still held — reading ``last_record`` after the await could
        see a concurrent query's record instead.
        """
        loop = asyncio.get_running_loop()

        def run() -> Tuple[Tuple[KeywordObject, ...], QueryRecord]:
            with self._locks[0]:
                results = self.engine.query(
                    rect, keywords, budget=budget, counter=counter
                )
                return results, self.engine.last_record

        return await loop.run_in_executor(self._pool, run)

    async def _query_sharded(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int],
        counter: Optional[CostCounter],
    ) -> Tuple[Tuple[KeywordObject, ...], QueryRecord]:
        """The sharded engine's fan-out plan with its shard calls on the pool.

        Planning, merging and finishing stay on the loop thread (the
        engine's bookkeeping is not thread-safe).
        """
        plan = Fanout(self.engine, rect, keywords, budget, counter)
        if plan.results is None:
            # A rebalance may have grown the shard count since construction;
            # extend the lock list on the loop thread before dispatching.
            while len(self._locks) < len(plan.state.engines):
                self._locks.append(threading.Lock())

            def run(shard_id: int):
                with self._locks[shard_id]:
                    return plan.run(shard_id)

            loop = asyncio.get_running_loop()
            outcomes = [loop.run_in_executor(self._pool, run, s) for s in plan.active]
            plan.finish(await asyncio.gather(*outcomes))
        # Nothing awaited since the finish: last_record is this query's.
        return plan.results, self.engine.last_record

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Serving-layer stats above the wrapped engine's own ``stats()``."""
        metrics = self.metrics.snapshot()
        stats = {
            "engine": self.engine.stats(),
            "shed": metrics["counters"].get("shed_total", 0),
            "max_inflight_cost": self.admission.max_inflight_cost,
            "inflight_cost": self.admission.inflight_cost,
            "inflight_queries": self.admission.inflight_queries,
            "metrics": metrics,
        }
        if self.slo is not None:
            stats["slo"] = self.slo.report()
        if self.sampler is not None:
            stats["sampler"] = self.sampler.stats()
        if self.events is not None:
            stats["events"] = self.events.stats()
        return stats


class AsyncDynamicIndex:
    """Single-writer/many-reader async front over a dynamic index.

    Writes (:meth:`insert`, :meth:`insert_many`, :meth:`delete`) serialize
    behind an :class:`asyncio.Lock` and run on the worker pool; each
    publishes one immutable epoch.  Reads (:meth:`query`) pin a
    :class:`~repro.service.snapshots.Snapshot` and run lock-free — a reader
    admitted before a write completes serves the pre-write epoch, one
    admitted after serves the post-write epoch, and nothing in between is
    observable.
    """

    def __init__(
        self,
        index,
        metrics: Optional[MetricsRegistry] = None,
        max_workers: int = 4,
        events: Optional[EventLog] = None,
    ):
        self.index = index
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.snapshots = SnapshotManager(index, metrics=self.metrics, events=events)
        if events is not None and getattr(index, "_events", None) is None:
            attach = getattr(index, "attach_events", None)
            if attach is not None:
                attach(events)
        self._writer_lock = asyncio.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-dyn"
        )

    async def __aenter__(self) -> "AsyncDynamicIndex":
        return self

    async def __aexit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    def _meter(self) -> None:
        self.metrics.gauge("published_epoch").set(self.index.epoch.epoch_id)
        self.metrics.gauge("live_objects").set(len(self.index))

    async def insert(self, point: Sequence[float], doc) -> int:
        """Insert one object (serialized with other writers)."""
        loop = asyncio.get_running_loop()
        async with self._writer_lock:
            oid = await loop.run_in_executor(
                self._pool, self.index.insert, point, doc
            )
        self.metrics.counter("writes_total").inc()
        self._meter()
        return oid

    async def insert_many(self, points, docs) -> List[int]:
        """Bulk insert; readers see none of the batch or all of it."""
        loop = asyncio.get_running_loop()
        async with self._writer_lock:
            oids = await loop.run_in_executor(
                self._pool, self.index.insert_many, points, docs
            )
        self.metrics.counter("writes_total").inc()
        self._meter()
        return oids

    async def delete(self, oid: int) -> None:
        """Tombstone one object (may publish a rebuilt epoch)."""
        loop = asyncio.get_running_loop()
        async with self._writer_lock:
            await loop.run_in_executor(self._pool, self.index.delete, oid)
        self.metrics.counter("writes_total").inc()
        self._meter()

    async def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Snapshot-isolated read; never blocks on (or observes) a writer."""
        loop = asyncio.get_running_loop()
        snapshot = self.snapshots.pin()
        self.metrics.counter("reads_total").inc()
        result = await loop.run_in_executor(
            self._pool, snapshot.query, rect, keywords, counter
        )
        self.snapshots.release(snapshot)
        return result

    def pin(self) -> Snapshot:
        """Pin the current epoch synchronously (diagnostics, tests)."""
        return self.snapshots.pin()

    def stats(self) -> Dict[str, Any]:
        """JSON-safe snapshot/staleness summary."""
        return self.snapshots.stats()
