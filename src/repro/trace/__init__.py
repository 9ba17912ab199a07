"""Cost-trace observability: hierarchical spans + a metrics registry.

See :mod:`repro.trace.span` for the span model (exact, timestamps-free
decomposition of :class:`~repro.costmodel.CostCounter` charges) and
:mod:`repro.trace.metrics` for per-engine counters/histograms.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    MetricCounter,
    MetricGauge,
    MetricHistogram,
    MetricsRegistry,
)
from .span import NULL_SPAN, SELF_SPAN, TraceSpan, Tracer, span_for

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricCounter",
    "MetricGauge",
    "MetricHistogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SELF_SPAN",
    "TraceSpan",
    "Tracer",
    "span_for",
]
