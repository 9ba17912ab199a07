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
* :class:`SnapshotManager` — hands out snapshots, tracks how far behind the
  published head each pin is (*snapshot age*, in epochs), and meters that
  into the index's own registry.

The concurrency contract mirrors the core index: one writer at a time (a
serving stack writes on its event-loop thread), any number of concurrent
readers, each pinning lock-free.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence

from ..costmodel import CostCounter
from ..dataset import KeywordObject
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
    """Pins snapshots over a dynamic index and meters their staleness.

    Parameters
    ----------
    index:
        Any index exposing the epoch protocol: an ``epoch`` property
        returning the current immutable epoch, and a ``metrics`` registry
        (:class:`~repro.core.dynamize.DynamicOrpKw`, whose epochs are
        bucket ladders, and
        :class:`~repro.service.sharding.ShardedQueryEngine`, whose epochs
        are published :class:`~repro.service.sharding.ShardMap` layouts).
        The gauges (``snapshot_epoch``, ``snapshot_age``) and the
        ``snapshots_pinned_total`` / ``snapshots_released_total`` counters
        go into ``index.metrics``, so a serving stack keeps one registry.
    events:
        A :class:`~repro.telemetry.EventLog` receiving ``snapshot_pin`` /
        ``snapshot_release`` events; ``None`` disables emission.
    """

    def __init__(self, index, events=None):
        self.index = index
        self.metrics = index.metrics
        self._events = events

    def pin(self) -> Snapshot:
        """Pin the currently published epoch for isolated reads.

        Pinning is one attribute read — it never blocks a writer and a
        writer never blocks it.
        """
        snapshot = Snapshot(self.index, self.index.epoch)
        self.metrics.counter("snapshots_pinned_total").inc()
        self.metrics.gauge("snapshot_epoch").set(snapshot.epoch_id)
        self.metrics.gauge("snapshot_age").set(snapshot.age())
        if self._events is not None:
            self._events.emit(
                "snapshot_pin", epoch=snapshot.epoch_id, live=len(snapshot)
            )
        return snapshot

    def observe(self, snapshot: Snapshot) -> None:
        """Re-meter a held snapshot's age (serving layers call this after
        each read so the gauge tracks the *oldest still-working* pin)."""
        self.metrics.gauge("snapshot_age").set(snapshot.age())

    def release(self, snapshot: Snapshot) -> None:
        """Mark a pinned snapshot as done (final age metering + event).

        Pins are plain references — nothing needs freeing — but release
        gives the telemetry stream a paired ``snapshot_release`` with the
        pin's final staleness, so a leaked long-lived pin is visible as a
        pin with no matching release.
        """
        self.metrics.counter("snapshots_released_total").inc()
        self.metrics.gauge("snapshot_age").set(snapshot.age())
        if self._events is not None:
            self._events.emit(
                "snapshot_release", epoch=snapshot.epoch_id, age=snapshot.age()
            )

    def stats(self) -> Dict[str, Any]:
        """JSON-safe staleness summary."""
        return {
            "published_epoch": self.index.epoch.epoch_id,
            "live_objects": len(self.index),
            "metrics": self.metrics.snapshot(),
        }
