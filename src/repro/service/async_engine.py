"""Concurrent async serving: admission control, shard fan-out, writes.

The synchronous engines serve one query at a time and assume a quiescent
index.  This module puts an :mod:`asyncio` front end above them that makes
three things safe and observable under concurrent mixed read/write traffic:

**Admission control** (:class:`AdmissionController`).  A query's budget
bounds its own work; admission bounds the *total in-flight* work: each
query reserves its budget's worth of cost units on admission and releases
them on completion.  When the reservation would push the in-flight total
past ``max_inflight_cost``, :class:`~repro.errors.BudgetExceeded` — the
exception a blown per-query budget raises — fires and the query is *shed*:
refused up front with a :class:`~repro.service.engine.QueryRecord` carrying
``reason="shed:admission"`` instead of being allowed to pile latency onto
everything already running.

**Concurrent execution** (:class:`AsyncQueryEngine`).  The front end runs
the wrapped engine's own plan — a sharded engine's
:class:`~repro.service.sharding.Fanout` (pin, cache, prune, exact budget
split, merge, finish) or a plain engine's one-shard
:class:`~repro.service.engine.EnginePlan` — and changes only the executor:
the execute step of each shard that runs is dispatched to a worker pool,
one thread each.  The execute step writes nothing shared, so concurrent
queries' calls on one shard overlap freely.  Opening, merging, finishing
and recording stay on the event-loop thread, sheds included.  The front
end holds no fan-out logic of its own, so a query served here gets the
same results, cost, slices and degraded flags as one served inline.

**Writes** go straight to the wrapped engine: ``engine.insert`` and
``engine.delete`` called on the event-loop thread, between awaits.  A
query pins the engine's published map when its plan opens, and the pool
runs only that plan's execute steps against it, so a write published
while they run changes nothing they read; every ``epoch_publish`` then
reaches a shared event log from the same thread as every record.

Every execute step runs in a shared :class:`~concurrent.futures.
ThreadPoolExecutor`; the event loop only validates, admits, merges, records
and writes.  Correctness is pinned differentially: the async engine returns
the synchronous engines' results and records.
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
from .engine import EnginePlan, QueryEngine
from .sharding import Fanout, ShardedQueryEngine

#: Reservation charged for an unbudgeted query (cost units).  Unbudgeted
#: queries have no a-priori work bound, so admission control needs *some*
#: stand-in to keep them from slipping past the throttle for free.
DEFAULT_RESERVATION = 256


class AdmissionController:
    """Bounded in-flight cost.

    An ``int`` holds the running reservation total: :meth:`admit` adds the
    query's reservation (its budget, or :data:`DEFAULT_RESERVATION` when
    unbudgeted) unless the total would pass ``max_inflight_cost``, in which
    case it raises :class:`~repro.errors.BudgetExceeded` (with the total
    the reservation would have made and the bound) and changes nothing.
    :meth:`release` returns the units when the query finishes.

    Thread-safe: admission happens on the event-loop thread, but releases
    may race in from executor callbacks, so a lock guards the total.

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
        self._inflight_cost = 0
        self._lock = threading.Lock()
        self._inflight_queries = 0

    def admit(self, reservation: int) -> None:
        """Reserve ``reservation`` units or shed (:class:`BudgetExceeded`).

        A shed query leaves the in-flight total exactly as it found it.
        """
        with self._lock:
            total = self._inflight_cost + reservation
            if self.slo is not None and self.max_inflight_cost is not None:
                pressure = self.slo.pressure()
                if pressure:
                    # Graduated shed: half capacity at pressure 1, a
                    # quarter at pressure 2 (never below one unit).
                    effective = max(self.max_inflight_cost >> pressure, 1)
                    if total > effective:
                        raise SloShed(self.slo.shed_reason(), total, effective)
            if self.max_inflight_cost is not None and total > self.max_inflight_cost:
                raise BudgetExceeded(total, self.max_inflight_cost)
            self._inflight_cost = total
            self._inflight_queries += 1

    def release(self, reservation: int) -> None:
        """Return a completed (or failed) query's reserved units."""
        with self._lock:
            self._inflight_cost -= reservation
            self._inflight_queries -= 1

    @property
    def inflight_cost(self) -> int:
        """Currently reserved cost units."""
        return self._inflight_cost

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
        :class:`~repro.service.sharding.ShardedQueryEngine`.  Either way the
        front end runs the engine's own plan (an
        :class:`~repro.service.engine.EnginePlan` or a
        :class:`~repro.service.sharding.Fanout`): it opens, finishes and
        records every query on the event-loop thread and sends only the
        execute step to the pool, one call per shard that runs (a plain
        engine is one shard).
    max_inflight_cost:
        Admission-control bound on the summed budget reservations of all
        in-flight queries; ``None`` admits everything.
    max_workers:
        Worker-pool size; defaults to the shard count (or 1 unsharded).
    events:
        Shared :class:`~repro.telemetry.EventLog`; attached to the wrapped
        engine when it has none, so the whole stack, sheds included, shares
        one event order.
    sampler:
        A :class:`~repro.telemetry.TailSampler`, attached to the wrapped
        engine: its record sink offers every finished or shed query's
        record, and drops ``record.trace`` when the sampler declines it.
    slo:
        An :class:`~repro.telemetry.SLOMonitor`, attached to the wrapped
        engine (whose sink feeds it every outcome) and handed to the
        :class:`AdmissionController` as the graduated shed signal.

    The front end meters admission (``admitted_total`` and the
    ``inflight_cost``/``inflight_queries`` gauges) into the engine's
    registry, where the sink counts sheds, so a serving stack has one
    registry (:attr:`metrics`).  All public methods are coroutines and must
    run on one event loop; the wrapped engine's bookkeeping (cache, records,
    metrics) is only ever touched from that loop's thread.  The pool runs
    only execute steps, which write nothing shared.

    Writes are plain ``engine.insert`` / ``engine.delete`` calls on the
    loop thread, between awaits; they need no lock.  The pool only runs
    ``plan.run`` against the map each plan pinned when it opened, which a
    write never changes, and every ``epoch_publish`` then reaches a shared
    event log on the same thread as every record.  The front end has no
    write methods of its own: they would only forward the call, and the
    rule is about the thread, which a method cannot enforce.
    """

    def __init__(
        self,
        engine: Union[QueryEngine, ShardedQueryEngine],
        max_inflight_cost: Optional[int] = None,
        max_workers: Optional[int] = None,
        events: Optional[EventLog] = None,
        sampler: Optional[TailSampler] = None,
        slo: Optional[SLOMonitor] = None,
    ):
        self.engine = engine
        self.metrics = engine.metrics
        self.events = events
        self.sampler = sampler
        self.slo = slo
        if events is not None and engine.events is None:
            engine.attach_events(events)
        if sampler is not None:
            engine.sampler = sampler
        if slo is not None:
            engine.slo = slo
        self.admission = AdmissionController(max_inflight_cost, slo=slo)
        sharded = isinstance(engine, ShardedQueryEngine)
        self._open = Fanout if sharded else EnginePlan
        if max_workers is None:
            max_workers = engine.num_shards if sharded else 1
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )

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

        A ``budget`` below 1 raises :class:`~repro.errors.ValidationError`
        before admission reserves anything.  Raises
        :class:`~repro.errors.BudgetExceeded` when admission control sheds
        the query (recorded with ``reason="shed:admission"`` in the wrapped
        engine's records); every *admitted* query returns exactly what the
        synchronous engine would return.
        """
        budget = self.engine._budget_for(budget)
        reservation = budget if budget is not None else DEFAULT_RESERVATION
        try:
            self.admission.admit(reservation)
        except BudgetExceeded as exc:
            # SLO-driven sheds carry their objective as exc.reason; plain
            # admission sheds fall back to the generic reason.
            self.engine._shed(
                rect, keywords, budget, getattr(exc, "reason", "shed:admission")
            )
            raise
        self.metrics.counter("admitted_total").inc()
        self._meter_inflight()
        try:
            plan = self._open(self.engine, rect, keywords, budget, counter)
            if plan.results is None:
                loop = asyncio.get_running_loop()
                outcomes = [
                    loop.run_in_executor(self._pool, plan.run, shard_id)
                    for shard_id in plan.active
                ]
                plan.finish(await asyncio.gather(*outcomes))
        finally:
            self.admission.release(reservation)
            self._meter_inflight()
        # Nothing awaited since the finish: last_record is this query's.
        return plan.results

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
