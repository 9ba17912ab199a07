"""Per-layer timing from outside the program.

:class:`LayerTimer` replaces public methods of the serving stack's classes
with wrappers that time each call.  Every thread keeps its own stack of open
calls, so a layer's *self time* is its busy time minus the time of the
wrapped calls it made (its children).  A call into the layer already on top
of the stack (``MultiKOrpIndex.query`` calling ``OrpKwIndex.query``) is
folded into the outer call rather than counted twice.

Busy time is the calling thread's CPU time (``time.thread_time``), not wall
time: on a shared virtual machine the wall clock also counts the time the
hypervisor gives the CPU to someone else, which swings by a factor of two
from one second to the next.  Spans additionally carry wall-clock start and
end, for reading them as a timeline.

The same wrappers carry the planted-slowdown self-check: with a plant of
factor ``F`` on a layer, every call into it busy-waits ``(F - 1)`` times its
own self time before returning, so the layer runs ``F`` times slower.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The request a span belongs to.  Set by the load generator around each
#: operation; tasks inherit it, but ``run_in_executor`` does not copy the
#: context, so calls on worker-pool threads carry ``None``.
REQUEST_ID: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "request_id", default=None
)


@dataclass
class Layer:
    """One layer: a name and the methods that enter it.

    ``fit`` asks for per-call ``(self seconds, result count)`` samples, the
    input of the descent-vs-reporting least-squares fit.  ``awaited`` marks
    coroutine entry points: other tasks run while they wait, so they get no
    self time, only their wall-clock duration.
    """

    name: str
    targets: Sequence[Tuple[type, str]]
    fit: bool = False
    awaited: bool = False


@dataclass
class LayerStats:
    """Accumulated timing of one layer."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    samples: List[Tuple[float, int]] = field(default_factory=list)

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        self.samples.extend(other.samples)


class _Frame:
    __slots__ = ("layer", "span_id", "child_s")

    def __init__(self, layer: str, span_id: int):
        self.layer = layer
        self.span_id = span_id
        self.child_s = 0.0


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.stats: Optional[Dict[str, LayerStats]] = None
        self.spans: Optional[List[tuple]] = None


def plantable(layers: Sequence[Layer]) -> set:
    """Names of the layers a slowdown can be planted in (not awaited ones:
    their time is other tasks' time too)."""
    return {layer.name for layer in layers if not layer.awaited}


def spin(seconds: float) -> None:
    """Busy-wait until this thread has used ``seconds`` more CPU time."""
    end = thread_time() + seconds
    while thread_time() < end:
        pass


class LayerTimer:
    """Install timing wrappers on ``layers``; read the totals afterwards.

    ``record=False`` installs the wrappers for the plant alone (untraced
    runs with a planted slowdown): nothing is accumulated.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        plant: Optional[Dict[str, float]] = None,
        record: bool = True,
    ):
        self.layers = {layer.name: layer for layer in layers}
        self.plant = dict(plant or {})
        unknown = set(self.plant) - plantable(layers)
        if unknown:
            raise ValueError(f"cannot plant in layer(s) {sorted(unknown)}")
        self.record = record
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads: List[Tuple[str, Dict[str, LayerStats], List[tuple]]] = []
        self._saved: List[Tuple[type, str, Any]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> "LayerTimer":
        for layer in self.layers.values():
            for owner, name in layer.targets:
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTimer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        if layer.awaited:
            return self._wrap_awaited(layer, fn)
        name = layer.name
        fit = layer.fit
        factor = self.plant.get(name, 1.0)
        record = self.record
        state = self._state
        ids = self._ids

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = state.stack
            if stack and stack[-1].layer == name:
                return fn(*args, **kwargs)
            frame = _Frame(name, next(ids))
            parent = stack[-1].span_id if stack else None
            stack.append(frame)
            result = None
            ok = False
            wall = perf_counter()
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                if factor != 1.0:
                    spin((factor - 1.0) * (thread_time() - start - frame.child_s))
                busy = thread_time() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += busy
                if record:
                    self._account(
                        name, frame.span_id, parent, wall, perf_counter(),
                        busy - frame.child_s, busy,
                        len(result) if fit and ok else None,
                    )

        return timed

    def _wrap_awaited(self, layer: Layer, fn: Callable) -> Callable:
        if not inspect.iscoroutinefunction(fn):
            raise TypeError(f"{layer.name}: {fn.__qualname__} is not a coroutine function")
        name = layer.name
        record = self.record
        ids = self._ids

        @functools.wraps(fn)
        async def awaited(*args, **kwargs):
            span_id = next(ids)
            wall = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                if record:
                    end = perf_counter()
                    self._account(name, span_id, None, wall, end, 0.0, end - wall, None)

        return awaited

    # -- accounting -------------------------------------------------------------

    def _account(
        self, name, span_id, parent, wall_start, wall_end, self_s, total_s, count,
    ) -> None:
        state = self._state
        if state.stats is None:
            state.stats, state.spans = {}, []
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, state.stats, state.spans)
                )
        entry = state.stats.get(name)
        if entry is None:
            entry = state.stats[name] = LayerStats()
        entry.calls += 1
        entry.self_s += self_s
        entry.total_s += total_s
        if count is not None:
            entry.samples.append((self_s, count))
        state.spans.append((span_id, parent, name, wall_start, wall_end, self_s,
                            REQUEST_ID.get(), threading.current_thread().name))

    # -- reading ----------------------------------------------------------------

    def _tables(self, thread_prefix: str):
        with self._lock:
            threads = list(self._threads)
        return [(table, spans) for thread, table, spans in threads
                if thread.startswith(thread_prefix)]

    def stats(self, thread_prefix: str = "") -> Dict[str, LayerStats]:
        """Per-layer totals over every thread whose name has the prefix."""
        merged = {name: LayerStats() for name in self.layers}
        for table, _spans in self._tables(thread_prefix):
            for name, entry in table.items():
                merged[name].merge(entry)
        return merged

    def spans(self) -> List[Dict[str, Any]]:
        """Every recorded span, ordered by wall-clock start."""
        rows = [span for _table, spans in self._tables("") for span in spans]
        rows.sort(key=lambda span: span[3])
        return [
            {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
             "self_cpu": self_s, "request_id": rid, "thread": thread}
            for sid, parent, name, start, end, self_s, rid, thread in rows
        ]


def serving_layers() -> List[Layer]:
    """The serving stack's layers, named after the modules that hold them."""
    from repro.core.baselines import KeywordsOnlyIndex, StructuredOnlyIndex
    from repro.core.multi_k import MultiKOrpIndex
    from repro.core.orp_kw import OrpKwIndex
    from repro.core.planner import HybridPlanner
    from repro.fast.backend import VectorizedBackend
    from repro.service import (
        AsyncQueryEngine, LRUCache, QueryEngine, ShardedQueryEngine,
    )
    from repro.telemetry import EventLog, SLOMonitor, TailSampler

    return [
        Layer("service.engine", [(QueryEngine, "query")]),
        Layer("service.cache", [(LRUCache, "lookup"), (LRUCache, "put")]),
        Layer("core.planner", [(HybridPlanner, "strategies_by_cost")]),
        Layer("core.orp_kw",
              [(MultiKOrpIndex, "query"), (OrpKwIndex, "query")], fit=True),
        Layer("core.baselines.keywords_only",
              [(KeywordsOnlyIndex, "query_rect")], fit=True),
        Layer("core.baselines.structured_only",
              [(StructuredOnlyIndex, "query_rect")], fit=True),
        Layer("fast.backend", [(VectorizedBackend, "query_rect")]),
        Layer("service.sharding", [(ShardedQueryEngine, "query")]),
        Layer("service.sharding.write",
              [(ShardedQueryEngine, "insert"), (ShardedQueryEngine, "delete")]),
        Layer("service.async_engine", [(AsyncQueryEngine, "query")],
              awaited=True),
        Layer("telemetry",
              [(EventLog, "emit"), (TailSampler, "offer"),
               (SLOMonitor, "observe_query"), (SLOMonitor, "pressure")]),
    ]


def fit_line(samples: Sequence[Tuple[float, int]]) -> Tuple[float, float]:
    """Least-squares ``seconds = fixed + per_result * count``.

    Returns ``(fixed, per_result)``; with no spread in ``count`` the slope
    is 0 and the intercept is the mean.
    """
    if not samples:
        return 0.0, 0.0
    n = len(samples)
    mean_y = sum(y for y, _x in samples) / n
    mean_x = sum(x for _y, x in samples) / n
    sxx = sum((x - mean_x) ** 2 for _y, x in samples)
    if sxx == 0:
        return mean_y, 0.0
    sxy = sum((x - mean_x) * (y - mean_y) for y, x in samples)
    slope = sxy / sxx
    return mean_y - slope * mean_x, slope


class GcMonitor:
    """Collector runs and their pauses, observed through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = thread_time()
            return
        pause = thread_time() - self._started
        self.collections[info["generation"]] += 1
        self.pause_s += pause
        self.max_pause_s = max(self.max_pause_s, pause)

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
