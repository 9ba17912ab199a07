"""Copy-on-write snapshots: pinned, immutable read views for serving.

An index that takes writes publishes every mutation as a new immutable
epoch, swapped in with one reference assignment:
:class:`~repro.core.dynamize.Dynamized` publishes bucket ladders
(:class:`~repro.core.dynamize.Epoch`) and
:class:`~repro.service.sharding.ShardedQueryEngine` publishes shard maps
(:class:`~repro.service.sharding.ShardMap`).  This module is the
*serving-side* face of that mechanism:

* :class:`Snapshot` — a reader's pinned view.  Everything it answers comes
  from one epoch, so a query that runs while a writer publishes (or while a
  half-dead rebuild repacks every bucket) still sees a single consistent
  state: no partially applied batch, no duplicated object across a carry
  merge, no mid-rebuild empty window.  A pinned shard map answers through
  the fan-out's own per-shard step, at each shard's indexed cost.
* :class:`SnapshotManager` — hands out snapshots over a sharded engine,
  counts the pins it holds, and meters how far behind the published head
  the oldest of them is (*snapshot age*, in epochs) into the engine's own
  registry.

The concurrency contract mirrors the core index: one writer at a time (a
serving stack writes on its event-loop thread), any number of concurrent
readers, each pinning lock-free.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence

from ..costmodel import CostCounter
from ..dataset import KeywordObject
from ..errors import ValidationError
from ..geometry.rectangles import Rect


class Snapshot:
    """An immutable read view pinned to one published epoch.

    Queries against a snapshot keep answering from the pinned state no
    matter how many inserts, deletes, or rebuilds are published afterwards;
    :meth:`age` reports how many epochs the pin has fallen behind.
    """

    __slots__ = ("_source", "_epoch")

    def __init__(self, source, epoch):
        self._source = source
        self._epoch = epoch

    @property
    def epoch_id(self) -> int:
        """The pinned epoch's id (monotone across publications)."""
        return self._epoch.epoch_id

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Report matches from the pinned epoch (isolation guaranteed)."""
        return self._epoch.query(rect, keywords, counter)

    def live_oids(self) -> FrozenSet[int]:
        """Ids of every object live in the pinned epoch."""
        return self._epoch.live_oids()

    def __len__(self) -> int:
        return self._epoch.live_count

    def age(self) -> int:
        """Epochs published since this snapshot was pinned (0 = current)."""
        return self._source.epoch.epoch_id - self._epoch.epoch_id


class SnapshotManager:
    """Pins snapshots over a sharded engine and meters their staleness.

    Parameters
    ----------
    index:
        The index whose published epochs are pinned: a
        :class:`~repro.service.sharding.ShardedQueryEngine`, whose epochs are
        published :class:`~repro.service.sharding.ShardMap` layouts.  Any
        index with an ``epoch`` property and a ``metrics`` registry works;
        the gauges (``snapshot_epoch``, ``snapshot_age``) and the
        ``snapshots_pinned_total`` / ``snapshots_released_total`` counters go
        into ``index.metrics``, so a serving stack keeps one registry.  A
        :class:`~repro.core.dynamize.Dynamized` index has no registry; its
        readers pin by reading ``index.epoch``.
    events:
        A :class:`~repro.telemetry.EventLog` receiving ``snapshot_pin`` /
        ``snapshot_release`` events; ``None`` disables emission.

    The manager counts the pins it holds per epoch.  ``snapshot_age`` is
    the published epoch minus the oldest epoch still held (0 when no pin is
    held), re-metered by :meth:`pin`, :meth:`observe` and :meth:`release`,
    so a leaked old pin stays visible however many fresh pins come and go.
    The count is not locked: pin and release on one thread (a serving
    stack's event-loop thread).
    """

    def __init__(self, index, events=None):
        self.index = index
        self.metrics = index.metrics
        self._events = events
        self._held: Dict[int, int] = {}

    def pin(self) -> Snapshot:
        """Pin the currently published epoch for isolated reads.

        Pinning is one attribute read — it never blocks a writer and a
        writer never blocks it.
        """
        snapshot = Snapshot(self.index, self.index.epoch)
        epoch_id = snapshot.epoch_id
        self._held[epoch_id] = self._held.get(epoch_id, 0) + 1
        self.metrics.counter("snapshots_pinned_total").inc()
        self.metrics.gauge("snapshot_epoch").set(epoch_id)
        self.observe()
        if self._events is not None:
            self._events.emit("snapshot_pin", epoch=epoch_id, live=len(snapshot))
        return snapshot

    def observe(self) -> None:
        """Re-meter ``snapshot_age``: epochs published since the oldest pin
        still held, or 0 when none is (serving layers call this after each
        read)."""
        age = self.index.epoch.epoch_id - min(self._held) if self._held else 0
        self.metrics.gauge("snapshot_age").set(age)

    def release(self, snapshot: Snapshot) -> None:
        """Mark a pinned snapshot as done (age re-metering + event).

        Pins are plain references — nothing needs freeing — but release
        gives the telemetry stream a paired ``snapshot_release`` with the
        pin's final staleness, so a leaked long-lived pin is visible as a
        pin with no matching release.  Releasing a pin this manager does
        not hold raises :class:`~repro.errors.ValidationError` and changes
        nothing.
        """
        epoch_id = snapshot.epoch_id
        held = self._held.get(epoch_id, 0)
        if not held:
            raise ValidationError(f"no pin on epoch {epoch_id} is held")
        if held == 1:
            del self._held[epoch_id]
        else:
            self._held[epoch_id] = held - 1
        self.metrics.counter("snapshots_released_total").inc()
        self.observe()
        if self._events is not None:
            self._events.emit("snapshot_release", epoch=epoch_id, age=snapshot.age())

    def stats(self) -> Dict[str, Any]:
        """JSON-safe staleness summary."""
        return {
            "published_epoch": self.index.epoch.epoch_id,
            "live_objects": len(self.index),
            "metrics": self.metrics.snapshot(),
        }
