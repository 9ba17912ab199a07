"""Process-level metrics: named counters and histograms with snapshots.

Every serving engine owns one :class:`MetricsRegistry`, which its async
front end, if any, writes too; two engines never share counters, and
:func:`repro.telemetry.merge_registries` aggregates several.  Everything is
JSON-safe and deterministic: snapshots are sorted by instrument name, and
histogram buckets are fixed at registration.

Like the rest of the trace layer, metrics carry *cost units and event
counts*, never wall-clock durations (reprolint R5 audits this package).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ValidationError

#: Default histogram bucket upper bounds: geometric in powers of 4, wide
#: enough for cost-unit distributions across the benchmark sweeps.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(4.0**i for i in range(11))  # 1 .. ~4.2M


class MetricCounter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValidationError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount

    def snapshot(self) -> int:
        return self.value

    def reset(self) -> None:
        self.value = 0


class MetricGauge:
    """A point-in-time float value (structural probe readings, ratios).

    Unlike a counter, a gauge may move in either direction: ``set`` replaces
    the value outright.  Gauges carry *measured structural quantities* —
    crossing-node counts, fanout bounds, space-per-unit ratios — never
    wall-clock readings (reprolint R5 audits this package).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value

    def reset(self) -> None:
        self.value = 0.0


class MetricHistogram:
    """A fixed-bucket histogram of non-negative observations.

    An observation ``v`` lands in the first bucket whose upper bound
    satisfies ``v <= bound``; values above the last bound land in the
    overflow bucket.  Bucket counts are cumulative-free (one count per
    observation), and ``count``/``sum``/``min``/``max`` summarize the raw
    stream.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "overflow", "count", "total", "low", "high")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValidationError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram {name} bucket bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.low: Optional[float] = None
        self.high: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        # Validate before any mutation: a rejected observation must leave
        # count/sum/min/max untouched, not half-recorded.
        if value < 0:
            raise ValidationError(
                f"histogram {self.name} observations must be >= 0, got {value}"
            )
        self.count += 1
        self.total += value
        self.low = value if self.low is None else min(self.low, value)
        self.high = value if self.high is None else max(self.high, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.overflow += 1

    def merge(self, other: "MetricHistogram") -> None:
        """Fold another histogram's observations into this one.

        Both histograms must have been registered with identical bucket
        bounds — merging differently-bucketed distributions silently
        misattributes counts, so a mismatch raises instead.  The other
        histogram is left untouched.  Used by the sharded exporter to roll
        per-shard registries into one fleet view.
        """
        if self.bounds != other.bounds:
            raise ValidationError(
                f"cannot merge histogram {other.name} into {self.name}: "
                f"bucket bounds differ ({len(other.bounds)} vs {len(self.bounds)})"
            )
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        if other.low is not None:
            self.low = other.low if self.low is None else min(self.low, other.low)
        if other.high is not None:
            self.high = other.high if self.high is None else max(self.high, other.high)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": {
                # String keys keep the JSON stable; integral bounds render
                # without an exponent (le_1048576, not le_1.04858e+06).
                (f"le_{int(bound)}" if bound.is_integer() else f"le_{bound:g}"): count
                for bound, count in zip(self.bounds, self.bucket_counts)
            },
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.total,
            "min": self.low,
            "max": self.high,
        }

    def reset(self) -> None:
        self.bucket_counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.low = None
        self.high = None


class MetricsRegistry:
    """Named counters + histograms with get-or-create registration.

    ``counter(name)`` / ``histogram(name)`` register on first use and return
    the existing instrument afterwards; :meth:`reset` zeroes every value but
    keeps the registrations (an engine's instrument catalogue survives a
    stats reset); :meth:`snapshot` renders everything JSON-safe, sorted by
    name.
    """

    __slots__ = ("_counters", "_histograms", "_gauges")

    def __init__(self):
        self._counters: Dict[str, MetricCounter] = {}
        self._histograms: Dict[str, MetricHistogram] = {}
        self._gauges: Dict[str, MetricGauge] = {}

    def _check_unregistered(self, name: str, kind: str) -> None:
        for table, other in (
            (self._counters, "counter"),
            (self._histograms, "histogram"),
            (self._gauges, "gauge"),
        ):
            if other != kind and name in table:
                raise ValidationError(f"{name} is already registered as a {other}")

    def counter(self, name: str) -> MetricCounter:
        found = self._counters.get(name)
        if found is None:
            self._check_unregistered(name, "counter")
            found = MetricCounter(name)
            self._counters[name] = found
        return found

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> MetricHistogram:
        found = self._histograms.get(name)
        if found is None:
            self._check_unregistered(name, "histogram")
            found = MetricHistogram(name, buckets)
            self._histograms[name] = found
        return found

    def gauge(self, name: str) -> MetricGauge:
        found = self._gauges.get(name)
        if found is None:
            self._check_unregistered(name, "gauge")
            found = MetricGauge(name)
            self._gauges[name] = found
        return found

    def counter_names(self) -> List[str]:
        return sorted(self._counters)

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

    def gauge_names(self) -> List[str]:
        return sorted(self._gauges)

    def snapshot(self) -> Dict[str, Any]:
        """All instruments, JSON-safe, deterministically ordered."""
        return {
            "counters": {
                name: self._counters[name].snapshot()
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].snapshot() for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        """Zero every instrument; counter/histogram registrations are kept.

        Gauges are *dropped*, not zeroed: a gauge is a point-in-time reading
        (a structural probe value), and a lingering 0.0 in the next snapshot
        would read as a measured zero rather than "not probed yet".
        """
        for instrument in self._counters.values():
            instrument.reset()
        for instrument in self._histograms.values():
            instrument.reset()
        self._gauges.clear()
