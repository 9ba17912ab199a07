"""Sharded serving: spatial partitioning plus one budget-bounded fan-out plan.

Partitioned content-and-structure systems get their robustness at scale
from per-partition indexes with bounded per-partition work.  This module
is that step for :mod:`repro`:

* :func:`partition_dataset` splits a :class:`~repro.dataset.Dataset` into
  ``S`` spatially coherent shards by recursive **median kd-splits** — the
  same median-selection rule (and the same ``numpy.argpartition`` selection
  primitive) the kd-tree build uses, generalized to an arbitrary shard
  count by cutting each recursion level proportionally.  For ``S`` a power
  of two the cuts are exactly the kd-tree's median splits.

* :class:`ShardedQueryEngine` owns one per-shard
  :class:`~repro.service.engine.QueryEngine` (per-shard fused indexes and
  planners; the full dataset's vocabulary is kept for stats) and serves
  every query through one :class:`Fanout` plan: **pin** the published
  :class:`ShardMap` and look up the cache; **prune** the shards whose
  published bounds miss the rectangle (their slices are recorded with
  strategy ``"pruned"``, budget 0 and cost 0); **split** the budget ``B``
  over the shards that run with :func:`split_budget_exact`; **run** them —
  inline in :meth:`ShardedQueryEngine.query`, or on the worker pool of
  :class:`~repro.service.async_engine.AsyncQueryEngine`; **merge and
  finish**.

Every share is fixed before any shard runs, so no shard's grant depends on
what another spent: a query gets the same answer, cost and degraded slices
from either executor.  A shard whose share is zero is served with a zero
budget — its first charge degrades it to the unbudgeted exact path, so
answers stay correct and the degradation is visible in its slice.
Degradation stays per-slice: the other shards still serve within budget.
As with the unsharded engine, every strategy is exact, so sharding never
changes the answer — the differential suite asserts result equality
against the unsharded engine for every shard count.  A pinned map
(:meth:`ShardMap.query`) answers through the same per-shard step as the
fan-out, so a snapshot read pays each shard's indexed cost, never a scan.

The merged :class:`~repro.service.engine.QueryRecord` sums per-category
costs over the shards, tags per-shard fallbacks with their ``shard`` id,
and keeps one ``{shard_id, strategy, budget, cost, degraded}`` slice per
shard, pruned ones included.  ``BudgetExceeded`` never escapes, and the
caller's counter receives the merged spend exactly once.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..telemetry.events import EventLog
from ..trace import Tracer, span_for
from .engine import Outcome, QueryEngine, ServingBase

#: New objects are routed to the shard whose bounds need the least
#: expansion; once the largest shard exceeds ``REBALANCE_THRESHOLD`` times
#: its fair share (``live_total / shards``), the next mutation publishes a
#: rebalanced map (a fresh :func:`partition_dataset` over the live set).
#: The largest possible ratio is the shard count, so 1.5 fires for any
#: shard count >= 2.
REBALANCE_THRESHOLD = 1.5


def split_budget_exact(budget: int, parts: int) -> List[int]:
    """Split ``budget`` into ``parts`` near-equal shares summing exactly.

    ``budget // parts`` each, with the first ``budget % parts`` shares one
    unit larger.  The fan-out fixes the share of every shard that runs this
    way before any of them runs.
    """
    if parts < 1:
        raise ValidationError(f"parts must be >= 1, got {parts}")
    base, extra = divmod(budget, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def partition_dataset(dataset: Dataset, shards: int) -> List[Dataset]:
    """Split ``dataset`` into ``shards`` spatial shards via median kd-splits.

    Recursive rule: to cut a set of objects into ``s`` shards, split the
    target count as ``s = s_left + s_right`` with ``s_left = s // 2``, pick
    the splitting axis round-robin by recursion level (the kd-tree's
    ``level % dim`` rule), and partition the objects at the coordinate of
    rank ``len * s_left / s`` along that axis (``numpy.argpartition``, the
    kd-tree build's selection primitive).  Shard sizes therefore differ by
    at most one object, and every shard is spatially coherent (an
    axis-aligned cell of the recursion).

    Shards keep the original objects (ids stay globally unique).  When the
    dataset has fewer objects than shards, the surplus shards come back
    explicitly empty (:meth:`Dataset.empty`) — a served shard, not an error.
    """
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    dim = dataset.dim
    pieces: List[List[KeywordObject]] = []

    def split(objs: List[KeywordObject], count: int, level: int) -> None:
        if count == 1:
            pieces.append(objs)
            return
        left_count = count // 2
        cut = (len(objs) * left_count) // count
        if 0 < cut < len(objs):
            axis = level % dim
            coords = np.array([obj.point[axis] for obj in objs])
            order = np.argpartition(coords, cut)
            objs = [objs[i] for i in order]
        split(objs[:cut], left_count, level + 1)
        split(objs[cut:], count - left_count, level + 1)

    split(list(dataset.objects), shards, 0)
    return [
        Dataset(piece) if piece else Dataset.empty(dim) for piece in pieces
    ]


def _expand_rect(bounds: Optional[Rect], point: Tuple[float, ...]) -> Rect:
    """The tightest box covering ``bounds`` and ``point``."""
    if bounds is None:
        return Rect(point, point)
    lo = tuple(min(b, p) for b, p in zip(bounds.lo, point))
    hi = tuple(max(b, p) for b, p in zip(bounds.hi, point))
    return Rect(lo, hi)


class ShardMap:
    """One immutable published shard layout of a :class:`ShardedQueryEngine`.

    The shard map is the sharded engine's epoch: datasets, per-shard engines,
    pruning bounds, per-shard delta buffers (objects inserted since the last
    rebalance), and the tombstone set are frozen together, so a reader that
    pins the map (:attr:`ShardedQueryEngine.epoch`) keeps a consistent
    view across concurrent inserts, deletes, and rebalance cutovers.
    Mutations publish a *successor* map with one reference assignment and
    never touch a published one — the same copy-on-write discipline as
    :class:`repro.core.dynamize.Epoch`.

    :meth:`run_shard` is the one read step over a map: the fan-out runs it
    for each active shard of the map it pinned, and :meth:`query` — what a
    pinned :class:`~repro.service.Snapshot` answers through — runs it for
    each shard whose bounds meet the rectangle.
    """

    __slots__ = (
        "epoch_id",
        "datasets",
        "engines",
        "bounds",
        "deltas",
        "tombstones",
        "live_sizes",
    )

    def __init__(
        self,
        epoch_id: int,
        datasets: Tuple[Dataset, ...],
        engines: Tuple[QueryEngine, ...],
        bounds: Tuple[Optional[Rect], ...],
        deltas: Tuple[Tuple[KeywordObject, ...], ...],
        tombstones: FrozenSet[int],
        live_sizes: Tuple[int, ...],
    ):
        self.epoch_id = epoch_id
        self.datasets = datasets
        self.engines = engines
        self.bounds = bounds
        self.deltas = deltas
        self.tombstones = tombstones
        self.live_sizes = live_sizes

    @property
    def live_count(self) -> int:
        return sum(self.live_sizes)

    def __len__(self) -> int:
        return self.live_count

    def active(self, rect: Rect) -> List[int]:
        """The shards whose bounds meet ``rect``, the only ones a read runs.

        The published bounds grow with every insert, so a shard holding
        objects outside its build-time box is never pruned away.
        """
        return [
            shard_id
            for shard_id, bounds in enumerate(self.bounds)
            if bounds is not None and rect.intersects(bounds)
        ]

    def run_shard(
        self,
        shard_id: int,
        rect: Rect,
        words: Sequence[int],
        share: Optional[int],
        tracer: Optional[Tracer],
    ) -> Tuple[List[KeywordObject], CostCounter, Outcome, int]:
        """Serve one shard's slice of a validated query from this map.

        The shard's engine executes (:meth:`QueryEngine._execute`) under
        ``share`` for its build-time dataset; objects inserted since the
        last rebalance live in the map's delta buffer and are scanned on top
        (fully charged); tombstoned objects are filtered from the combined
        slice.  Returns the slice's objects, the counter that paid for it
        (traced into ``tracer``), the engine's outcome and the engine's own
        cost.  A published map and its engines are never written, so any
        thread may run this, for any number of queries at once.
        """
        engine = self.engines[shard_id]
        probe = CostCounter()
        probe.tracer = tracer
        with span_for(probe, f"shard-{shard_id}", "sharding", budget=share):
            outcome = engine._execute(rect, words, share, probe)
            engine_cost = probe.total
            objs = list(outcome.results)
            delta = self.deltas[shard_id]
            if delta:
                required = set(words)
                with span_for(probe, "delta-scan", "sharding", shard=shard_id):
                    for obj in delta:
                        probe.charge("objects_examined")
                        probe.charge("comparisons")
                        if rect.contains_point(obj.point) and required <= obj.doc:
                            objs.append(obj)
            tombstones = self.tombstones
            if tombstones:
                with span_for(probe, "tombstone-filter", "sharding", shard=shard_id):
                    kept = []
                    for obj in objs:
                        probe.charge("structure_probes")
                        if obj.oid not in tombstones:
                            kept.append(obj)
                    objs = kept
        return objs, probe, outcome, engine_cost

    def query(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Answer one query from this pinned map, as the live engine would.

        Validated like :meth:`ShardedQueryEngine.query` (every shard engine
        carries the engine's ``max_k`` and the corpus dimension), then
        :meth:`run_shard`, unbudgeted, on each shard whose bounds meet the
        rectangle: the fan-out's step, at each shard's indexed cost.  The
        slices' spend is charged to ``counter``, so it equals what an
        unbudgeted, uncached engine query on this map charges.  Records
        nothing and touches no cache.
        """
        rect, words = self.engines[0]._validate(rect, keywords)
        counter = ensure_counter(counter)
        merged: List[KeywordObject] = []
        with span_for(counter, "pinned-read", "sharding", epoch=self.epoch_id):
            for shard_id in self.active(rect):
                objs, probe, _outcome, _cost = self.run_shard(
                    shard_id, rect, words, None, counter.tracer
                )
                merged.extend(objs)
                counter.merge(probe)
        return list(_merge_results(merged))

    def live_oids(self) -> FrozenSet[int]:
        """The ids of every live object in this map (diagnostic)."""
        return frozenset(
            obj.oid
            for shard_id, dataset in enumerate(self.datasets)
            for objects in (dataset.objects, self.deltas[shard_id])
            for obj in objects
            if obj.oid not in self.tombstones
        )


def _merge_results(merged: List[KeywordObject]) -> Tuple[KeywordObject, ...]:
    """Dedup by object id and fix a deterministic (id-sorted) order.

    The shards partition the objects, so duplicates cannot arise; the
    dedup guards the invariant anyway (a future overlap bug must not
    silently double-report).
    """
    seen: set = set()
    unique = []
    for obj in merged:
        if obj.oid not in seen:
            seen.add(obj.oid)
            unique.append(obj)
    unique.sort(key=lambda obj: obj.oid)
    return tuple(unique)


class Fanout:
    """One sharded query's fan-out plan.

    Opening it (on the caller's thread) validates the query, counts it in,
    pins the published :class:`ShardMap` and looks the query up in the
    cache: a hit sets :attr:`results` and nothing runs.  On a miss it keeps
    the shards whose bounds meet the rectangle (:attr:`active`) and splits
    the budget exactly over them (:attr:`shares`, empty when unbudgeted).
    The executor then calls :meth:`run` once per active shard — inline, or
    on worker threads — and hands the outcomes, in any order, to
    :meth:`finish`.
    :class:`~repro.service.engine.EnginePlan` is the one-shard form.
    """

    __slots__ = (
        "engine", "rect", "words", "budget", "caller", "query_id", "state",
        "tracer", "key", "results", "active", "shares",
    )

    def __init__(
        self,
        engine: "ShardedQueryEngine",
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int],
        counter: Optional[CostCounter],
    ):
        self.engine = engine
        self.rect, self.words, self.budget, self.caller, self.query_id = (
            engine._begin(rect, keywords, budget, counter)
        )
        # Pin the published map once: the whole fan-out (and the cache key)
        # runs against one consistent shard layout even if a writer
        # publishes an insert or a rebalance cutover mid-flight.
        self.state = state = engine._state
        self.tracer: Optional[Tracer] = None
        if engine.tracing:
            self.tracer = Tracer(
                "sharded_query", "sharding",
                query_id=self.query_id, shards=len(state.engines),
            )
        # The map's epoch is part of the key, so a mutation implicitly
        # invalidates every cached merged result from older layouts.
        self.key = (state.epoch_id, self.rect.lo, self.rect.hi, frozenset(self.words))
        self.results = engine._cached(
            self.key, self.query_id, self.rect, self.words, self.budget, self.tracer
        )
        self.active: List[int] = []
        self.shares: Dict[int, int] = {}
        if self.results is None:
            self.active = state.active(self.rect)
            if self.budget is not None and self.active:
                self.shares = dict(
                    zip(self.active, split_budget_exact(self.budget, len(self.active)))
                )
            engine.metrics.counter("shards_pruned_total").inc(
                len(state.engines) - len(self.active)
            )

    def run(
        self, shard_id: int
    ) -> Tuple[int, List[KeywordObject], CostCounter, Outcome, int, Optional[Tracer]]:
        """Run one active shard's slice (:meth:`ShardMap.run_shard`) of the
        pinned map under its share.  Each call traces into a tracer of its
        own (tracers are single-stack); :meth:`finish` grafts it into the
        tree."""
        tracer = Tracer("fanout", "sharding") if self.tracer is not None else None
        objs, probe, outcome, engine_cost = self.state.run_shard(
            shard_id, self.rect, self.words, self.shares.get(shard_id), tracer
        )
        return shard_id, objs, probe, outcome, engine_cost, tracer

    def finish(self, outcomes: Iterable[tuple]) -> Tuple[KeywordObject, ...]:
        """Merge the outcomes of :meth:`run` (observing each shard's cell) and finish."""
        engine = self.engine
        by_shard = {outcome[0]: outcome[1:] for outcome in outcomes}
        spent = CostCounter()  # merged per-query accumulator, never budgeted
        fallbacks: List[Dict[str, Any]] = []
        slices: List[Dict[str, Any]] = []
        merged: List[KeywordObject] = []
        for shard_id, shard_engine in enumerate(self.state.engines):
            if shard_id not in by_shard:
                slices.append(
                    dict(
                        shard_id=shard_id, strategy="pruned", backend="cost_model",
                        budget=0, cost=0, degraded=False,
                    )
                )
                continue
            objs, probe, outcome, engine_cost, tracer = by_shard[shard_id]
            merged.extend(objs)
            for fallback in outcome.fallbacks:
                fallbacks.append(dict(fallback, shard=shard_id))
            slices.append(
                dict(
                    shard_id=shard_id, strategy=outcome.strategy,
                    backend=outcome.backend, budget=self.shares.get(shard_id),
                    cost=probe.total, degraded=outcome.degraded,
                )
            )
            # The shard engine's own cell: its cost and result count before
            # the delta scan and the tombstone filter, over its build corpus.
            engine.stats_collector.observe(
                outcome.strategy, outcome.backend, engine_cost, len(outcome.results),
                corpus_size=len(shard_engine.dataset),
            )
            spent.merge(probe)
            if tracer is not None:
                for child in tracer.finish().children:
                    self.tracer.root.graft(child)
        # A write published while the shards ran (a pooled fan-out) keys
        # this answer by a map no later lookup uses: it is not cached.
        key = self.key if engine._state is self.state else None
        self.results = engine._finish(
            self.query_id, self.rect, self.words, self.budget, spent, self.caller,
            key, self.tracer,
            Outcome(_merge_results(merged), "sharded", engine.backend, fallbacks, {}, False),
            slices,
        )
        return self.results


class ShardedQueryEngine(ServingBase):
    """Fan-out serving over ``S`` spatial shards with merged cost traces.

    The external contract matches :class:`QueryEngine` — ``query``/``batch``
    with per-call budget overrides, an LRU result cache, per-query
    :class:`QueryRecord` traces, JSON-safe ``stats()`` — so the CLI and any
    caller can swap one for the other; both build on
    :class:`~repro.service.engine.ServingBase`.  Every query runs the
    :class:`Fanout` plan described in the module docstring: each shard's
    engine only executes its slice, and the sharded engine validates,
    caches, records and finishes the query once.

    Parameters mirror :class:`QueryEngine`, plus ``shards``.  With
    ``tracing=True`` each query's record carries a finished span tree whose
    fan-out span holds one child span per shard that ran; the per-shard
    engines' strategy and index spans nest under their shard span.  Every
    tally lives in this engine — its ``metrics`` registry and the
    :meth:`planner_stats` cells, per shard and merged.  With
    ``shards=1`` it is the engine for a corpus that takes inserts and
    deletes.
    """

    def __init__(
        self,
        dataset: Dataset,
        shards: int = 4,
        max_k: int = 4,
        default_budget: Optional[int] = None,
        cache_size: int = 128,
        keep_records: int = 1024,
        tracing: bool = False,
        backend: str = "cost_model",
        events: Optional[EventLog] = None,
    ):
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        # Wires the event log before the first _publish_state call below,
        # so the initial shard map's epoch_publish event is emitted too.  The
        # backend is handed to every shard engine ("auto" resolves per shard
        # from that shard's estimates; each slice records the choice).
        self._init_serving(default_budget, cache_size, keep_records, tracing, events, backend)
        self.dataset = dataset
        self.num_shards = shards
        self.max_k = max_k
        #: Global vocabulary, shared across shards (each shard's inverted
        #: index only covers its slice; stats report the full W).
        self.vocabulary = dataset.vocabulary
        self._rebalances = 0
        self._next_oid = max((obj.oid for obj in dataset.objects), default=-1) + 1
        self._publish_state(
            self._fresh_map(0, tuple(partition_dataset(dataset, shards)))
        )

    def _fresh_map(self, epoch_id: int, datasets: Tuple[Dataset, ...]) -> ShardMap:
        """A map (not yet published) over freshly cut ``datasets``: fresh
        engines with this engine's build configuration, their corpus boxes
        as bounds, empty deltas and no tombstones."""
        engines = tuple(
            QueryEngine(shard, max_k=self.max_k, backend=self.backend)
            for shard in datasets
        )
        #: Writer-side master copy of every object (tombstoned objects stay
        #: until a rebalance purges them) and each object's owning shard.
        #: Readers never touch these — all read state comes from the map.
        self._objects: Dict[int, KeywordObject] = {}
        self._owner: Dict[int, int] = {}
        for shard_id, shard in enumerate(datasets):
            for obj in shard.objects:
                self._objects[obj.oid] = obj
                self._owner[obj.oid] = shard_id
        return ShardMap(
            epoch_id,
            datasets,
            engines,
            tuple(engine.bounds for engine in engines),
            tuple(() for _ in datasets),
            frozenset(),
            tuple(len(shard) for shard in datasets),
        )

    def _publish_state(self, shard_map: ShardMap) -> None:
        """Atomically install the successor shard map (one assignment) and
        empty the cache: every entry is keyed by an older map's epoch, so
        none can be hit again."""
        self._state = shard_map
        self._cache.clear()
        if self._events is not None:
            self._events.emit(
                "epoch_publish",
                epoch=shard_map.epoch_id,
                shards=len(shard_map.datasets),
                live=shard_map.live_count,
                tombstones=len(shard_map.tombstones),
            )

    # -- published shard map -----------------------------------------------------

    @property
    def epoch(self) -> ShardMap:
        """The currently published shard map (advances on every mutation).

        The map is immutable: queries against it (directly or via a
        :class:`~repro.service.Snapshot`) keep answering from this layout
        no matter how many inserts, deletes, or rebalances are published
        afterwards — the snapshot-isolated cutover contract.
        """
        return self._state

    def __len__(self) -> int:
        return self._state.live_count

    @property
    def shard_datasets(self) -> List[Dataset]:
        """Per-shard base datasets of the published map (delta objects live
        in :attr:`ShardMap.deltas` until a rebalance folds them in)."""
        return list(self._state.datasets)

    @property
    def shard_engines(self) -> List[QueryEngine]:
        """Per-shard engines of the published map."""
        return list(self._state.engines)

    @property
    def shard_bounds(self) -> List[Optional[Rect]]:
        """Per-shard pruning boxes (``None`` for empty shards), refreshed on
        every publish: the fan-out skips a shard whose box misses the query
        rectangle."""
        return list(self._state.bounds)

    # -- updates -----------------------------------------------------------------

    def insert(self, point: Sequence[float], doc) -> int:
        """Insert an object; returns its assigned id.

        The object joins the delta buffer of the shard whose bounds need the
        least expansion (ties to the lowest shard id), the shard's pruning
        box is expanded to cover it, and the successor map is published
        atomically — in-flight readers on the previous map finish
        consistently without the new object.  When the insert tips the
        balance past :data:`REBALANCE_THRESHOLD`, the published map is a
        full rebalance instead (see :meth:`rebalance`).
        """
        coords = tuple(float(c) for c in point)
        state = self._state
        dim = self.dataset.dim if self.dataset.dim is not None else len(coords)
        if len(coords) != dim:
            raise ValidationError(
                f"point is {len(coords)}-dimensional, data is {dim}-dimensional"
            )
        for coord in coords:
            if not math.isfinite(coord):
                raise ValidationError(
                    f"point has a non-finite coordinate ({coord})"
                )
        obj = KeywordObject(oid=self._next_oid, point=coords, doc=frozenset(doc))
        shard_id = self._route(state, coords)
        self._next_oid += 1
        self._objects[obj.oid] = obj
        self._owner[obj.oid] = shard_id
        deltas = tuple(
            delta + (obj,) if sid == shard_id else delta
            for sid, delta in enumerate(state.deltas)
        )
        bounds = tuple(
            _expand_rect(bound, coords) if sid == shard_id else bound
            for sid, bound in enumerate(state.bounds)
        )
        live_sizes = tuple(
            size + (1 if sid == shard_id else 0)
            for sid, size in enumerate(state.live_sizes)
        )
        if self._needs_rebalance(live_sizes, state.tombstones):
            self._publish_state(self._rebalanced_map(state.tombstones, None))
        else:
            self._publish_state(
                ShardMap(
                    state.epoch_id + 1,
                    state.datasets,
                    state.engines,
                    bounds,
                    deltas,
                    state.tombstones,
                    live_sizes,
                )
            )
        self._meter_shards()
        return obj.oid

    def delete(self, oid: int) -> None:
        """Tombstone an object; physical removal happens at the next rebalance.

        Deleting an unknown id or an already-tombstoned id raises
        :class:`~repro.errors.ValidationError` with **no** side effects: no
        tombstone is recorded and no map is published.  Once half the stored
        objects are dead, the next delete publishes a rebalanced map (the
        purge) instead of another tombstone-only map.
        """
        state = self._state
        if oid not in self._objects:
            raise ValidationError(f"unknown object id {oid}")
        if oid in state.tombstones:
            raise ValidationError(f"object {oid} already deleted")
        tombstones = state.tombstones | {oid}
        shard_id = self._owner[oid]
        live_sizes = tuple(
            size - (1 if sid == shard_id else 0)
            for sid, size in enumerate(state.live_sizes)
        )
        if len(tombstones) * 2 >= len(self._objects) or self._needs_rebalance(
            live_sizes, tombstones
        ):
            self._publish_state(self._rebalanced_map(tombstones, None))
        else:
            self._publish_state(
                ShardMap(
                    state.epoch_id + 1,
                    state.datasets,
                    state.engines,
                    state.bounds,
                    state.deltas,
                    tombstones,
                    live_sizes,
                )
            )
        self._meter_shards()

    def rebalance(self, shards: Optional[int] = None) -> None:
        """Re-partition the live set into ``shards`` fresh shards now.

        The new map — datasets re-cut by :func:`partition_dataset`, fresh
        engines, tight bounds, empty deltas, tombstones purged — is built
        entirely off to the side and published in one step: readers pinned
        to the old map (e.g. through :class:`~repro.service.SnapshotManager`)
        keep a consistent view of the pre-cutover layout, new queries see
        the rebalanced layout.  The imbalance trigger calls this implicitly;
        it is public for operator-driven splits (``shards`` > current count).
        """
        self._publish_state(self._rebalanced_map(self._state.tombstones, shards))
        self._meter_shards()

    def _route(self, state: ShardMap, coords: Tuple[float, ...]) -> int:
        """The shard whose pruning box needs the least L1 expansion."""
        best_id = 0
        best_cost: Optional[float] = None
        for shard_id, bound in enumerate(state.bounds):
            if bound is None:
                cost = 0.0  # an empty shard absorbs the point for free
            else:
                cost = sum(
                    max(b_lo - c, 0.0) + max(c - b_hi, 0.0)
                    for b_lo, b_hi, c in zip(bound.lo, bound.hi, coords)
                )
            if best_cost is None or cost < best_cost:
                best_id, best_cost = shard_id, cost
        return best_id

    def _needs_rebalance(
        self, live_sizes: Tuple[int, ...], tombstones: FrozenSet[int]
    ) -> bool:
        """Has the partition balance decayed past the threshold?

        Balance is the largest shard's live size over the exact fair share
        ``live_total / shards`` (a fresh :func:`partition_dataset` achieves
        it up to one object); dead weight counts separately through the
        half-dead purge in :meth:`delete`.  A one-object slack absorbs the
        tiny-count regime where a single insert swings the ratio.
        """
        live_total = sum(live_sizes)
        if live_total == 0:
            return bool(tombstones)
        fair = live_total / len(live_sizes)
        return max(live_sizes) > REBALANCE_THRESHOLD * fair + 1.0

    def _rebalanced_map(
        self, tombstones: FrozenSet[int], shards: Optional[int]
    ) -> ShardMap:
        """Build (but do not publish) a fresh balanced map over the live set.

        Purges ``tombstones`` from the writer-side master copy, re-cuts the
        survivors with :func:`partition_dataset`, and rebuilds engines and
        bounds.  The caller publishes the result — exactly once per
        mutation, so a reader can never observe a half-cutover layout.
        """
        if shards is not None:
            if shards < 1:
                raise ValidationError(f"shards must be >= 1, got {shards}")
            self.num_shards = shards
        live = [
            obj
            for oid, obj in sorted(self._objects.items())
            if oid not in tombstones
        ]
        dim = self.dataset.dim if self.dataset.dim is not None else 1
        dataset = Dataset(live) if live else Dataset.empty(dim)
        self._rebalances += 1
        self.metrics.counter("rebalances_total").inc()
        if self._events is not None:
            self._events.emit(
                "shard_rebalance",
                epoch=self._state.epoch_id + 1,
                shards=self.num_shards,
                live=len(live),
                purged=len(tombstones),
            )
        return self._fresh_map(
            self._state.epoch_id + 1,
            tuple(partition_dataset(dataset, self.num_shards)),
        )

    def _meter_shards(self) -> None:
        """Publish the writer's post-mutation shard gauges."""
        state = self._state
        live_total = state.live_count
        self.metrics.gauge("shard_epoch").set(state.epoch_id)
        self.metrics.gauge("shard_live_objects").set(live_total)
        self.metrics.gauge("shard_imbalance").set(
            max(state.live_sizes) / (live_total / len(state.live_sizes))
            if live_total
            else 0.0
        )
        self.metrics.gauge("shard_tombstone_fraction").set(
            len(state.tombstones) / max(len(self._objects), 1)
        )

    # -- serving ----------------------------------------------------------------

    def query(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int] = None,
        counter: Optional[CostCounter] = None,
    ) -> Tuple[KeywordObject, ...]:
        """Serve one query through the fan-out plan, running shards inline.

        Same contract as :meth:`QueryEngine.query`: exact answers as an
        immutable tuple (sorted by object id — the shard merge defines a
        deterministic order), a per-query trace in :attr:`last_record`, and
        ``BudgetExceeded`` never escaping.
        """
        plan = Fanout(self, rect, keywords, budget, counter)
        if plan.results is None:
            plan.finish([plan.run(shard_id) for shard_id in plan.active])
        return plan.results

    # -- observability -----------------------------------------------------------

    @property
    def _corpus_size(self) -> int:
        return self._state.live_count

    def stats(self) -> Dict[str, Any]:
        """Lifetime statistics with a per-shard breakdown (JSON-safe)."""
        stats = super().stats()
        stats["degraded_slices"] = stats["metrics"]["counters"].get("degraded_slices_total", 0)
        stats["dataset"]["vocabulary"] = len(self.vocabulary)
        stats["shards"] = {
            "count": self.num_shards,
            "sizes": [len(shard) for shard in self.shard_datasets],
            "epoch": self._state.epoch_id,
            "live_sizes": list(self._state.live_sizes),
            "delta_sizes": [len(delta) for delta in self._state.deltas],
            "tombstones": len(self._state.tombstones),
            "rebalances": self._rebalances,
            "per_shard": [
                {
                    "shard_id": shard_id,
                    "objects": len(engine.dataset),
                    "input_size": engine.dataset.total_doc_size,
                }
                for shard_id, engine in enumerate(self.shard_engines)
            ],
        }
        return stats

    @property
    def space_units(self) -> int:
        """Sum of the per-shard engines' stored entries."""
        return sum(engine.space_units for engine in self.shard_engines)
