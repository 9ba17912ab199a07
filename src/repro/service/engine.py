"""The budget-bounded query engine.

:class:`QueryEngine` is the single entry point a deployment talks to.  It
owns a :class:`~repro.core.multi_k.MultiKOrpIndex` (one Theorem-1 index per
keyword count), one :class:`~repro.core.planner.HybridPlanner` over it
(sharing the fused indexes, inverted index, and baselines — nothing is built
twice), an LRU result cache, and a lifetime cost counter.

Execution contract
------------------
The planner plans every query, whatever its keyword count, and keeps no
state between calls.  Every query runs its strategies **cheapest estimate
first**, each under the per-query budget.  A strategy that raises
:class:`~repro.errors.BudgetExceeded` is abandoned — its spent units are
still accounted — and the next strategy takes over, recorded as a fallback.
If every strategy blows the budget, the cheapest one is re-run *unbudgeted*
(the query is served no matter what; the record is marked ``degraded``).
``BudgetExceeded`` therefore never escapes the engine; the per-query
:class:`QueryRecord` is the observable trace of what happened.

All strategies are exact, so fallbacks and degradation never change the
answer — only the cost of producing it.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..costmodel import CATEGORIES, CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_nonempty_keywords
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..core.baselines import StructuredOnlyIndex
from ..core.multi_k import MultiKOrpIndex
from ..core.planner import STRATEGIES, HybridPlanner
from ..telemetry.events import EventLog
from ..telemetry.quantiles import StatsCollector
from ..telemetry.sampler import TailSampler
from ..telemetry.slo import SLOMonitor
from ..trace import MetricsRegistry, Tracer, span_for

#: A query as the batch API accepts it: a (rect, keywords) pair, where the
#: rectangle may be a Rect or a flat [lo..., hi...] coordinate list.
QuerySpec = Tuple[Union[Rect, Sequence[float]], Sequence[int]]


@dataclass
class QueryRecord:
    """Per-query observability record (JSON-safe via :meth:`to_dict`)."""

    query_id: int
    rect_lo: Tuple[float, ...]
    rect_hi: Tuple[float, ...]
    keywords: Tuple[int, ...]
    strategy: str
    cache: str  # "hit" | "miss" | "bypass"
    budget: Optional[int]
    #: Which execution backend served the query ("cost_model" or
    #: "vectorized"; for an ``auto`` engine this is the resolved choice).
    #: A fanned-out query records the sharded engine's configured backend;
    #: each shard resolves ``auto`` on its own, and its slice in
    #: :attr:`shards` records the choice.
    backend: str = "cost_model"
    degraded: bool = False
    fallbacks: List[Dict[str, Any]] = field(default_factory=list)
    cost: Dict[str, int] = field(default_factory=dict)
    estimates: Dict[str, float] = field(default_factory=dict)
    result_count: int = 0
    #: Per-shard slices of a fanned-out query (sharded serving only): each
    #: entry is {shard_id, strategy, backend, budget, cost, degraded}.
    #: Empty for a single-engine serve.
    shards: List[Dict[str, Any]] = field(default_factory=list)
    #: Finished span tree (:meth:`~repro.trace.TraceSpan.to_dict`) when the
    #: serving engine ran with tracing enabled; ``None`` otherwise.
    trace: Optional[Dict[str, Any]] = None
    #: Why a query was refused without being served (admission-control
    #: shedding in the async front end, e.g. ``"shed:admission"``); ``None``
    #: for every served query.
    reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering of the record."""
        return {
            "query_id": self.query_id,
            "rect": {"lo": list(self.rect_lo), "hi": list(self.rect_hi)},
            "keywords": list(self.keywords),
            "strategy": self.strategy,
            "cache": self.cache,
            "budget": self.budget,
            "backend": self.backend,
            "degraded": self.degraded,
            "fallbacks": list(self.fallbacks),
            "cost": dict(self.cost),
            "estimates": dict(self.estimates),
            "result_count": self.result_count,
            "shards": [dict(s) for s in self.shards],
            "trace": self.trace,
            "reason": self.reason,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class Outcome(NamedTuple):
    """What executing one query produced, before anything records it."""

    results: Sequence[KeywordObject]
    strategy: str
    backend: str
    fallbacks: List[Dict[str, Any]]
    estimates: Dict[str, Any]
    degraded: bool


def checked_budget(budget: Optional[int], name: str = "budget") -> Optional[int]:
    """``budget`` if it is ``None`` (unbudgeted) or at least 1, else a
    :class:`~repro.errors.ValidationError`.  Every budget a caller supplies
    passes here; the fan-out's shard shares, which may be 0, do not."""
    if budget is not None and budget < 1:
        raise ValidationError(f"{name} must be >= 1, got {budget}")
    return budget


def _bounding_rect(dataset: Dataset) -> Optional[Rect]:
    """Tightest axis-aligned box around ``dataset`` (``None`` when empty)."""
    if not len(dataset):
        return None
    points = [obj.point for obj in dataset.objects]
    lo = tuple(min(p[axis] for p in points) for axis in range(dataset.dim))
    hi = tuple(max(p[axis] for p in points) for axis in range(dataset.dim))
    return Rect(lo, hi)


class ServingBase:
    """What :class:`QueryEngine` and
    :class:`~repro.service.sharding.ShardedQueryEngine` share: one query
    validation, one cache-hit record, one finish step (cache put, record,
    caller accounting), one shed record, one record sink and the read side.
    A subclass sets ``dataset`` and ``max_k``, calls :meth:`_init_serving`,
    and serves a query through a plan (:class:`EnginePlan`, or the sharded
    :class:`~repro.service.sharding.Fanout`) that calls :meth:`_begin`,
    :meth:`_cached` and, on a miss, :meth:`_finish`.  Every outcome, shed
    included, reaches :meth:`_record`, and every tally, event, retained
    trace and SLO window is derived there alone.

    ``sampler`` and ``slo`` are live attachments like the event log: the
    async front end attaches its :class:`~repro.telemetry.TailSampler` and
    :class:`~repro.telemetry.SLOMonitor`, and pickling drops all three.
    """

    def _init_serving(
        self, default_budget: Optional[int], cache_size: int, keep_records: int,
        tracing: bool, events: Optional[EventLog], backend: str,
    ) -> None:
        from ..fast import validate_backend
        from .cache import LRUCache

        checked_budget(default_budget, "default_budget")
        if keep_records < 1:
            raise ValidationError(f"keep_records must be >= 1, got {keep_records}")
        self.backend = validate_backend(backend)
        self.default_budget = default_budget
        self.tracing = tracing
        self.metrics = MetricsRegistry()
        self._events = events
        self.sampler: Optional[TailSampler] = None
        self.slo: Optional[SLOMonitor] = None
        #: Per-(strategy, backend) running statistics — the planner feed.
        self.stats_collector = StatsCollector()
        self.counter = CostCounter()  # engine-lifetime aggregate
        self._cache = LRUCache(cache_size)
        self._records: Deque[QueryRecord] = deque(maxlen=keep_records)
        self._queries_served = 0

    def __getstate__(self) -> Dict[str, Any]:
        # The event log, the sampler and the SLO monitor are live
        # operational attachments (often shared across engines): persisting
        # them would duplicate them per saved engine.
        state = dict(self.__dict__)
        state.update(_events=None, sampler=None, slo=None)
        return state

    # -- the query prologue and epilogue ------------------------------------------

    @staticmethod
    def _coerce_rect(rect: Union[Rect, Sequence[float]]) -> Rect:
        if isinstance(rect, Rect):
            return rect
        coords = [float(c) for c in rect]
        for coord in coords:
            # Rect itself allows infinite bounds (Rect.full), but a flat
            # coordinate list comes from an external caller (CLI, JSONL
            # workload) where a non-finite value is a data error: NaN makes
            # containment tests silently inconsistent, inf silently turns a
            # typo into an unbounded scan.
            if not math.isfinite(coord):
                raise ValidationError(
                    f"flat rectangle has a non-finite coordinate ({coord})"
                )
        if len(coords) % 2 != 0:
            raise ValidationError(
                f"flat rectangle needs an even coordinate count, got {len(coords)}"
            )
        dim = len(coords) // 2
        return Rect(coords[:dim], coords[dim:])

    def _validate(
        self, rect: Union[Rect, Sequence[float]], keywords: Sequence[int]
    ) -> Tuple[Rect, List[int]]:
        """Coerce and validate a query's rectangle and keyword set."""
        rect = self._coerce_rect(rect)
        words = sorted(set(validate_nonempty_keywords(keywords)))
        if len(words) > self.max_k:
            raise ValidationError(
                f"{len(words)} distinct keywords exceed max_k={self.max_k}"
            )
        if self.dataset.dim is not None:
            rect.require_dim(self.dataset.dim)
        return rect, words

    def _begin(
        self, rect: Union[Rect, Sequence[float]], keywords: Sequence[int],
        budget: Optional[int], counter: Optional[CostCounter],
    ) -> Tuple[Rect, List[int], Optional[int], CostCounter, int]:
        """Validate one query and count it in: the rectangle, the sorted
        distinct keywords, the effective budget, the caller's counter (a
        fresh one when none was passed) and the query's id."""
        rect, words = self._validate(rect, keywords)
        budget = self._budget_for(budget)
        self._queries_served += 1
        self.metrics.counter("queries_total").inc()
        return rect, words, budget, ensure_counter(counter), self._queries_served

    def _budget_for(self, budget: Optional[int]) -> Optional[int]:
        """The budget a query runs under: the caller's, checked by
        :func:`checked_budget`, else the engine's ``default_budget``."""
        return self.default_budget if budget is None else checked_budget(budget)

    def _cached(
        self, key: Tuple, query_id: int, rect: Rect, words: Sequence[int],
        budget: Optional[int], tracer: Optional[Tracer],
    ) -> Optional[Tuple[KeywordObject, ...]]:
        """The cached answer for ``key``, recorded as a hit (``tracer``, when
        given, finished into its record); ``None`` on a miss."""
        cached, hit = self._cache.lookup(key)
        if not hit:
            return None
        record = QueryRecord(
            query_id=query_id,
            rect_lo=rect.lo,
            rect_hi=rect.hi,
            keywords=tuple(words),
            strategy="cache",
            cache="hit",
            budget=budget,
            result_count=len(cached),
        )
        self._record(record, tracer)
        return cached

    def _finish(
        self, query_id: int, rect: Rect, words: Sequence[int], budget: Optional[int],
        spent: CostCounter, caller: CostCounter, key: Optional[Tuple],
        tracer: Optional[Tracer], outcome: Outcome, slices: Sequence[Dict[str, Any]] = (),
    ) -> Tuple[KeywordObject, ...]:
        """Cache, record and account one executed query.

        ``slices`` are a fan-out's per-shard slices; the query is degraded
        when any slice is.  A ``key`` of ``None`` skips the cache put (a
        fan-out whose pinned map was superseded while it ran).  Not
        thread-safe (the cache and the record deque are not): the async
        front end finishes on its event-loop thread.
        """
        # Record and cache before touching the caller's counter, and fold the
        # spent units into it with absorb() (never merge()): a caller-supplied
        # counter may carry its own budget, and the engine's contract is that
        # BudgetExceeded never escapes query() — the trace and the cache entry
        # must land even when the caller's budget is already blown.
        results = tuple(outcome.results)
        evicted = self._cache.put(key, results) if key is not None else 0
        if evicted and self._events is not None:
            self._events.emit(
                "cache_evict", query_id=query_id, evicted=evicted,
                size=len(self._cache), capacity=self._cache.capacity,
            )
        record = QueryRecord(
            query_id=query_id,
            rect_lo=rect.lo,
            rect_hi=rect.hi,
            keywords=tuple(words),
            strategy=outcome.strategy,
            cache="miss",
            budget=budget,
            backend=outcome.backend,
            degraded=outcome.degraded or any(entry["degraded"] for entry in slices),
            fallbacks=list(outcome.fallbacks),
            cost=spent.snapshot(),
            estimates={
                name: float(value)
                for name, value in outcome.estimates.items()
                if isinstance(value, (int, float))
            },
            result_count=len(results),
            shards=list(slices),
        )
        self._record(record, tracer)
        self.counter.absorb(spent)
        caller.absorb(spent)
        return results

    def _shed(
        self, rect: Union[Rect, Sequence[float]], keywords: Sequence[int],
        budget: Optional[int], reason: str,
    ) -> None:
        """Record a query that admission control refused (strategy
        ``shed``, query id 0: ids belong to queries counted in)."""
        try:
            rect = self._coerce_rect(rect)
            lo, hi = rect.lo, rect.hi
        except ValidationError:
            lo = hi = ()
        record = QueryRecord(
            query_id=0,
            rect_lo=lo,
            rect_hi=hi,
            keywords=tuple(keywords),
            strategy="shed",
            cache="bypass",
            budget=budget,
            reason=reason,
        )
        self._record(record, None)

    def _record(self, record: QueryRecord, tracer: Optional[Tracer]) -> None:
        """The one sink: retain a finished, cache-hit or shed record
        (``tracer``, when given, is finished into it) and derive from its
        fields the registry's counters and histograms, the
        ``backend_<b>_total`` counter of every planned execution (the
        record's own, or each shard slice's), the
        :class:`StatsCollector` cell (over the served corpus), the
        ``query_degraded``/``query_finish``/``query_shed`` events, the
        attached sampler's retention (``record.trace`` is dropped when it
        declines) and the attached SLO monitor's window.  A shed counts in
        ``shed_total`` (and ``shed_slo_total`` when an objective tripped)
        and changes no served-query tally."""
        if tracer is not None:
            record.trace = tracer.finish().to_dict()
        self._records.append(record)
        shed = record.strategy == "shed"
        if self.sampler is not None and not self.sampler.offer(record):
            # Not retained: drop the span tree so unretained traces do not
            # accumulate in the record deque.
            record.trace = None
        if self.slo is not None:
            self.slo.observe_query(
                cost=record.cost.get("total", 0),
                budget_exhausted=bool(record.fallbacks),
                shed=shed,
            )
        metrics = self.metrics
        if shed:
            metrics.counter("shed_total").inc()
            if record.reason != "shed:admission":
                metrics.counter("shed_slo_total").inc()
            if self._events is not None:
                self._events.emit(
                    "query_shed",
                    reason=record.reason,
                    budget=record.budget,
                    keywords=len(record.keywords),
                )
            return
        metrics.counter(f"strategy_{record.strategy}_total").inc()
        if record.cache == "hit":
            metrics.counter("cache_hits_total").inc()
        else:
            metrics.counter("cache_misses_total").inc()
            cost = record.cost
            fallbacks = len(record.fallbacks)
            degraded_slices = sum(1 for entry in record.shards if entry["degraded"])
            if fallbacks:
                metrics.counter("fallbacks_total").inc(fallbacks)
                metrics.counter("budget_exhausted_total").inc()
            if record.degraded:
                metrics.counter("degraded_total").inc()
            if degraded_slices:
                metrics.counter("degraded_slices_total").inc(degraded_slices)
            planned = record.shards or [{"strategy": record.strategy, "backend": record.backend}]
            for entry in planned:
                if entry["strategy"] in STRATEGIES:
                    metrics.counter(f"backend_{entry['backend']}_total").inc()
            for category in CATEGORIES:
                metrics.histogram(f"cost_{category}").observe(cost.get(category, 0))
            metrics.histogram("cost_total").observe(cost["total"])
            metrics.histogram("result_count").observe(record.result_count)
            self.stats_collector.observe(
                record.strategy, record.backend, cost["total"], record.result_count,
                corpus_size=self._corpus_size,
            )
            if record.degraded and self._events is not None:
                self._events.emit(
                    "query_degraded",
                    query_id=record.query_id,
                    strategy=record.strategy,
                    fallbacks=fallbacks,
                    budget=record.budget,
                    cost_total=cost["total"],
                    **({"degraded_slices": degraded_slices} if record.shards else {}),
                )
        if self._events is not None:
            self._events.emit(
                "query_finish",
                query_id=record.query_id,
                strategy=record.strategy,
                cache=record.cache,
                cost_total=record.cost.get("total", 0),
                result_count=record.result_count,
                degraded=record.degraded,
            )

    @property
    def _corpus_size(self) -> int:
        """Objects served, the denominator of the collected selectivity."""
        return len(self.dataset)

    def batch(
        self,
        queries: Iterable[QuerySpec],
        budget: Optional[int] = None,
        counter: Optional[CostCounter] = None,
    ) -> List[Tuple[KeywordObject, ...]]:
        """Serve a sequence of ``(rect, keywords)`` queries in order.

        The matching traces are the tail of :attr:`records`; pair them with
        the returned result lists for per-query reporting.
        """
        return [
            self.query(rect, keywords, budget=budget, counter=counter)
            for rect, keywords in queries
        ]

    # -- observability -----------------------------------------------------------

    @property
    def records(self) -> List[QueryRecord]:
        """The retained per-query traces, oldest first."""
        return list(self._records)

    @property
    def last_record(self) -> Optional[QueryRecord]:
        return self._records[-1] if self._records else None

    @property
    def cache(self):
        return self._cache

    @property
    def events(self) -> Optional[EventLog]:
        """The attached structured event log (``None`` when not wired)."""
        return self._events

    def attach_events(self, events: Optional[EventLog]) -> None:
        """Attach (or detach with ``None``) a structured event log.

        Lets a deployment wire one shared log through an engine that was
        built — or unpickled — without one.
        """
        self._events = events

    def planner_stats(self) -> Dict[str, Any]:
        """The stable per-(strategy, backend) statistics feed.

        Schema-versioned rendering of the engine's
        :class:`~repro.telemetry.StatsCollector` — the collected-statistics
        input a future adaptive planner (and any dashboard) reads.
        """
        return self.stats_collector.planner_stats()

    def stats(self) -> Dict[str, Any]:
        """Lifetime engine statistics (JSON-safe), tallies read from the registry."""
        metrics = self.metrics.snapshot()
        counters = metrics["counters"]
        return {
            "queries": self._queries_served,
            "strategies": {
                name[len("strategy_"):-len("_total")]: count
                for name, count in counters.items()
                if name.startswith("strategy_") and name.endswith("_total")
            },
            "fallbacks": counters.get("fallbacks_total", 0),
            "degraded": counters.get("degraded_total", 0),
            "cache": self._cache.stats(),
            "cost": self.counter.snapshot(),
            "dataset": {
                "objects": len(self.dataset),
                "input_size": self.dataset.total_doc_size,
                "dim": self.dataset.dim,
            },
            "max_k": self.max_k,
            "default_budget": self.default_budget,
            "backend": self.backend,
            "metrics": metrics,
        }

    def export_stats_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.stats(), indent=indent, sort_keys=True)

    def export_records_json(self) -> str:
        """All retained traces as a JSON array (oldest first)."""
        return json.dumps(
            [record.to_dict() for record in self._records], sort_keys=True
        )

    @property
    def dim(self) -> Optional[int]:
        """Dimensionality of the served points (mirrors the index classes)."""
        return self.dataset.dim

    @property
    def input_size(self) -> int:
        """``N`` (mirrors the index classes, for ``cli info``)."""
        return self.dataset.total_doc_size


class QueryEngine(ServingBase):
    """Budget-bounded, cached, observable serving layer.

    Parameters
    ----------
    dataset:
        The corpus.  An explicitly empty dataset (:meth:`Dataset.empty`) is
        served too: every query validates and reports nothing.
    max_k:
        Serve queries with ``1..max_k`` distinct keywords.
    default_budget:
        Per-query cost budget (cost-model units) applied when a call does not
        pass its own; ``None`` means unbudgeted.
    cache_size:
        LRU result-cache capacity; ``0`` disables caching.
    keep_records:
        How many most-recent :class:`QueryRecord` traces to retain.
    tracing:
        When true every served query builds a :class:`~repro.trace.Tracer`
        span tree, attached to its :class:`QueryRecord` as ``record.trace``.
        Tracing never changes the charged cost in any category.
    events:
        A :class:`~repro.telemetry.EventLog` to emit structured serving
        events into (``query_finish``, ``query_degraded``, ``cache_evict``);
        ``None`` (the default) disables event emission.  Share one log
        across the serving stack for a single total event order.

    Every engine owns its :class:`~repro.trace.MetricsRegistry`
    (:attr:`metrics`); :func:`~repro.telemetry.merge_registries` aggregates
    several.  A query runs as one :class:`EnginePlan` — open, run, finish —
    the one-shard form of the sharded fan-out's plan, so the async front end
    can open and finish it on its event loop and run it on its pool.  The
    engine answers a rectangle that misses its corpus's bounding box
    (:attr:`bounds`) with ``()`` at zero cost and strategy ``"pruned"`` —
    the fan-out's prune rule, so one shard serves exactly like the
    unsharded engine.  A corpus that takes inserts and deletes is served by
    ``ShardedQueryEngine(dataset, shards=1)``.
    """

    def __init__(
        self,
        dataset: Dataset,
        max_k: int = 4,
        default_budget: Optional[int] = None,
        cache_size: int = 128,
        keep_records: int = 1024,
        tracing: bool = False,
        backend: str = "cost_model",
        events: Optional[EventLog] = None,
    ):
        from ..fast import VectorizedBackend

        self._init_serving(default_budget, cache_size, keep_records, tracing, events, backend)
        self.dataset = dataset
        self.max_k = max_k
        #: Tightest box around the corpus (``None`` when it is empty).
        self.bounds = _bounding_rect(dataset)

        if dataset.objects:
            self._index: Optional[MultiKOrpIndex] = MultiKOrpIndex(dataset, max_k)
            self._structured: Optional[StructuredOnlyIndex] = StructuredOnlyIndex(
                dataset
            )
            self._keywords = self._index.keywords
            self._planner: Optional[HybridPlanner] = HybridPlanner(
                dataset,
                max_k,
                fused_index=self._index,
                inverted=self._index.inverted,
                structured=self._structured,
                keywords_index=self._keywords,
            )
        else:
            self._index = None
            self._structured = None
            self._keywords = None
            self._planner = None
        # The numpy executor of all three strategies, over the structured
        # index's own kd-tree and the fused indexes.  Built eagerly so the
        # first query does not pay a hidden build cost; it pickles without
        # its derived arrays and tables.
        self._fast = (
            VectorizedBackend(
                dataset,
                self._structured.tree,
                [self._index.fused_for(k) for k in range(2, max_k + 1)],
            )
            if dataset.objects and self.backend != "cost_model"
            else None
        )

    # -- planning ---------------------------------------------------------------

    #: Below this keywords-only candidate estimate the numpy fast path's
    #: fixed per-call overhead (its numpy calls, and a membership mask over
    #: the corpus per keyword pass) eats its batching win, so ``auto`` stays
    #: on the scalar path.  DESIGN.md §12 tabulates the measured crossover.
    AUTO_MIN_CANDIDATES = 64

    def _resolve_backend(self, estimates: Dict[str, float]) -> str:
        """The execution backend for one query: the configured one, or for
        an ``auto`` engine ``"vectorized"`` exactly when the query's
        keywords-only candidate estimate is at least
        :attr:`AUTO_MIN_CANDIDATES`.  A function of the query alone: it
        reads and writes no engine state."""
        if self.backend != "auto":
            return self.backend
        if estimates["keywords_only"] >= self.AUTO_MIN_CANDIDATES:
            return "vectorized"
        return "cost_model"

    def _run_strategy(
        self,
        strategy: str,
        rect: Rect,
        words: Sequence[int],
        counter: CostCounter,
        backend: str = "cost_model",
    ) -> List[KeywordObject]:
        if backend == "vectorized":
            if strategy == "fused":
                return self._fast.query_fused(rect, words, counter)
            if strategy == "keywords_only":
                return self._fast.query_rect(rect, words, counter)
            return self._fast.query_structured(rect, words, counter)
        if strategy == "fused":
            return self._index.query(rect, words, counter)
        if strategy == "keywords_only":
            return self._keywords.query_rect(rect, words, counter)
        return self._structured.query_rect(rect, words, counter)

    # -- serving ----------------------------------------------------------------

    def query(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int] = None,
        counter: Optional[CostCounter] = None,
    ) -> Tuple[KeywordObject, ...]:
        """Serve one query; the trace lands in :attr:`last_record`.

        Runs the query's :class:`EnginePlan` inline: validate and count the
        query in, answer it from the cache, or execute and finish it.
        ``budget`` (``None`` or at least 1) overrides the engine's
        ``default_budget`` for this call.  Results are returned as an
        immutable tuple (shared with the cache, so a caller cannot poison
        later hits by mutating what it got back).  With ``tracing=True`` the
        query owns a fresh tracer and its record carries the finished tree.
        """
        plan = EnginePlan(self, rect, keywords, budget, counter)
        if plan.results is None:
            plan.finish([plan.run(0)])
        return plan.results

    def _execute(
        self, rect: Rect, words: Sequence[int], budget: Optional[int], spent: CostCounter
    ) -> Outcome:
        """Prune, plan, resolve the backend, run the strategy chain and
        degrade, charging ``spent`` and tracing into its tracer; records
        nothing (the fan-out runs each shard's slice through this step
        alone).  A function of the query and the engine's immutable indexes:
        it writes no engine state, so calls on one engine may overlap on
        worker threads.

        Each strategy runs as one :meth:`~repro.costmodel.CostCounter.attempt`
        under ``budget``.  Budget bound: each strategy abandoned under budget
        ``B`` overshoots it by at most its last charge, and the one that
        completes spends at most ``B``.  A degraded query then also pays the
        unbudgeted cost ``C0`` of the cheapest-estimate strategy, so it costs
        the fallbacks' ``spent`` plus ``C0`` — more than the unbudgeted query
        costs.
        """
        if self.bounds is None or not rect.intersects(self.bounds):
            # An empty corpus, or a rectangle that misses its bounding box:
            # nothing can match; zero cost, honest trace.
            strategy = "empty_dataset" if self.bounds is None else "pruned"
            return Outcome((), strategy, "cost_model", [], {}, False)

        order, estimates = self._planner.strategies_by_cost(rect, words)
        backend = self._resolve_backend(estimates)
        fallbacks: List[Dict[str, Any]] = []
        for strategy in order:
            with span_for(spent, strategy, "engine", budget=budget):
                results, probe = spent.attempt(
                    budget,
                    lambda counter: self._run_strategy(strategy, rect, words, counter, backend),
                )
            if results is not None:
                return Outcome(results, strategy, backend, fallbacks, estimates, False)
            fallbacks.append({"strategy": strategy, "spent": probe.total, "budget": budget})
        # Every strategy blew the budget: serve the cheapest unbudgeted,
        # charged to ``spent`` directly.  The rerun re-enters the strategy's
        # keyed span, so its charges accumulate there and the leaf-sum
        # invariant still holds.
        with span_for(spent, order[0], "engine", degraded=True):
            results = self._run_strategy(order[0], rect, words, spent, backend)
        return Outcome(results, order[0], backend, fallbacks, estimates, True)

    # -- observability -----------------------------------------------------------

    def probe_structure(self, seed: int = 17) -> List[Dict[str, Any]]:
        """Run the structural health probes and mirror them into metrics.

        Snapshots the audit-layer probes (kd-tree crossing vs Lemma 10,
        space vs the near-linear budget) for this engine's live indexes and
        registers every value as a ``probe_*`` gauge, so the next
        :meth:`stats` call exposes them under ``["metrics"]["gauges"]``.
        Returns the probe reports as JSON-safe dicts.
        """
        # Imported here: the audit package is an optional observability layer
        # on top of the engine, not a serving dependency.
        from ..audit.probes import engine_reports, register_all

        reports = engine_reports(self, seed=seed)
        register_all(reports, self.metrics)
        return [report.to_dict() for report in reports]

    @property
    def space_units(self) -> int:
        """Stored entries across the fused indexes, baselines, and the
        planner's sample."""
        if self._index is None:
            return 0
        return self._index.space_units + len(self._planner._sample)


class EnginePlan:
    """One :class:`QueryEngine` query's plan: the one-shard form of
    :class:`~repro.service.sharding.Fanout`.

    Opening it (on the caller's thread) validates the query, counts it in
    and looks it up in the cache: a hit sets :attr:`results` and nothing
    runs.  On a miss :attr:`active` is ``[0]``; the executor calls
    :meth:`run` for it — inline, or on a worker thread — and hands the
    outcome to :meth:`finish` on the opening thread.
    """

    __slots__ = (
        "engine", "rect", "words", "budget", "caller", "query_id", "tracer",
        "key", "results", "active",
    )

    def __init__(
        self,
        engine: QueryEngine,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int],
        counter: Optional[CostCounter],
    ):
        self.engine = engine
        self.rect, self.words, self.budget, self.caller, self.query_id = (
            engine._begin(rect, keywords, budget, counter)
        )
        self.tracer: Optional[Tracer] = None
        if engine.tracing:
            self.tracer = Tracer("query", "engine", query_id=self.query_id)
        self.key = (self.rect.lo, self.rect.hi, frozenset(self.words))
        self.results = engine._cached(
            self.key, self.query_id, self.rect, self.words, self.budget, self.tracer
        )
        self.active = [0] if self.results is None else []

    def run(self, shard_id: int) -> Tuple[CostCounter, Outcome]:
        """Execute the query (:meth:`QueryEngine._execute`); records nothing."""
        spent = CostCounter()  # per-query accumulator, never budgeted
        spent.tracer = self.tracer
        return spent, self.engine._execute(self.rect, self.words, self.budget, spent)

    def finish(self, outcomes: Iterable[Tuple[CostCounter, Outcome]]) -> Tuple[KeywordObject, ...]:
        """Cache, record and account the one outcome of :meth:`run`."""
        ((spent, outcome),) = outcomes
        self.results = self.engine._finish(
            self.query_id, self.rect, self.words, self.budget, spent, self.caller,
            self.key, self.tracer, outcome,
        )
        return self.results
