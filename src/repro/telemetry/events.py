"""Bounded, schema-versioned structured event log for the serving stack.

Query records answer "what did query 17 cost"; the event log answers "what
*happened*, in order" — which shard maps were published, which queries
were shed and why, when a shard map was rebalanced, which snapshots were
pinned and released.  EMBANKS-style operational auditing wants those page/epoch-like
events held to the same rigor as RAM-model costs, so the log is:

* **typed** — every event carries a ``kind`` from :data:`EVENT_KINDS`;
  emitting an unknown kind raises (a typo must not silently create a new
  stream nobody monitors);
* **bounded** — a ring buffer of ``capacity`` events; overwritten events
  are *counted* (:attr:`EventLog.dropped`), never silently lost;
* **ordered** — sequence numbers are monotone and never reused, so an
  exported tail makes gaps visible;
* **schema-versioned and deterministic** — :meth:`EventLog.export_jsonl`
  renders sorted-key JSON lines stamped with :data:`SCHEMA_VERSION`,
  byte-identical across runs of a seeded workload (timestamps come from the
  injectable :mod:`~repro.telemetry.clock`, which defaults to an event
  counter, not wall time).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from ..errors import ValidationError
from .clock import Clock, CounterClock

#: Event-line schema version (bump on incompatible field changes).
SCHEMA_VERSION = 1

#: Every event kind the serving stack emits.  Grouped by emitter: engines
#: (query_*, cache_evict), the sharded engine (epoch_publish,
#: shard_rebalance), and the snapshot manager (snapshot_pin,
#: snapshot_release).
EVENT_KINDS = frozenset(
    {
        "query_finish",
        "query_shed",
        "query_degraded",
        "cache_evict",
        "epoch_publish",
        "shard_rebalance",
        "snapshot_pin",
        "snapshot_release",
    }
)


@dataclass(frozen=True)
class Event:
    """One structured event: monotone ``seq``, typed ``kind``, flat fields."""

    seq: int
    ts: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (schema-stamped, deterministic key order
        under ``sort_keys=True``)."""
        return {
            "schema": SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "fields": dict(self.fields),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _validate_fields(kind: str, fields: Dict[str, Any]) -> Dict[str, Any]:
    """Reject non-JSON-scalar field values before they reach the ring.

    Events are exported verbatim; a set or an object sneaking in would make
    the JSONL rendering nondeterministic (or crash the exporter long after
    the emitting call site is gone from the stack).
    """
    for name, value in fields.items():
        if value is not None and not isinstance(value, (bool, int, float, str)):
            raise ValidationError(
                f"event {kind} field {name!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
    return dict(fields)


class EventLog:
    """Bounded ring buffer of typed serving events.

    Parameters
    ----------
    capacity:
        Ring size; the oldest event is overwritten (and counted in
        :attr:`dropped`) once full.
    clock:
        Timestamp source; defaults to a private
        :class:`~repro.telemetry.clock.CounterClock` (deterministic event
        counting).  Pass :class:`~repro.telemetry.clock.MonotonicClock`
        for live wall-clock stamps.

    One log may be shared across every serving component of a deployment
    (engine, async front end, snapshot manager): sequence numbers then give
    a single total order over the whole stack's events.
    """

    def __init__(self, capacity: int = 4096, clock: Optional[Clock] = None):
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock if clock is not None else CounterClock()
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        #: Events overwritten by the ring bound (visible truncation).
        self.dropped = 0
        self._kind_counts: Dict[str, int] = {}

    def emit(self, kind: str, **fields: Any) -> Event:
        """Append one typed event; returns it (seq monotone, never reused)."""
        if kind not in EVENT_KINDS:
            raise ValidationError(
                f"unknown event kind {kind!r}; known kinds: "
                f"{', '.join(sorted(EVENT_KINDS))}"
            )
        self._seq += 1
        self.clock.tick()
        event = Event(
            seq=self._seq,
            ts=self.clock.now(),
            kind=kind,
            fields=_validate_fields(kind, fields),
        )
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        return event

    # -- reading ----------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events oldest first (optionally one kind only)."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def tail(self, count: int) -> List[Event]:
        """The most recent ``count`` retained events, oldest first."""
        if count <= 0:
            return []
        return list(self._events)[-count:]

    def __len__(self) -> int:
        return len(self._events)

    @property
    def last_seq(self) -> int:
        """Highest sequence number ever emitted (0 before the first)."""
        return self._seq

    def counts(self) -> Dict[str, int]:
        """Lifetime per-kind emission counts (drops do not decrement)."""
        return dict(sorted(self._kind_counts.items()))

    # -- rendering --------------------------------------------------------------

    def export_jsonl(self, kind: Optional[str] = None) -> str:
        """Deterministic JSON-lines rendering of the retained events."""
        return "\n".join(event.to_json() for event in self.events(kind))

    def stats(self) -> Dict[str, Any]:
        """JSON-safe summary (sizes, drops, per-kind counts)."""
        return {
            "schema": SCHEMA_VERSION,
            "capacity": self.capacity,
            "retained": len(self._events),
            "emitted": self._seq,
            "dropped": self.dropped,
            "kinds": self.counts(),
        }
