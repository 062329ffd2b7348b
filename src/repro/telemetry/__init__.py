"""Zero-dependency observability: tracing, metrics, recovery event log.

Three pillars, one bundle per simulator session:

* :class:`~repro.telemetry.tracing.Tracer` -- nested spans (``update`` >
  ``plan.build`` > ``run.chunk`` ...) with a bounded ring buffer and a
  chrome://tracing / Perfetto JSON exporter.  Context crosses pool
  thread boundaries via attach/detach.
* :class:`~repro.telemetry.metrics.MetricsRegistry` -- named counters,
  gauges and fixed-bucket histograms (p50/p95/max) with Prometheus text
  exposition and fleet-wide ``merge``.
* :class:`~repro.telemetry.events.EventLog` -- bounded timestamped log of
  discrete recovery events (fault injected, chunk fallback, run retry,
  checkpoint).

See the README's "Observability" section for usage.
"""

from .events import EventLog, TelemetryEvent
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, next_session_id
from .session import Telemetry, activate, current, deactivate, emit_event
from .tracing import NULL_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "SpanRecord",
    "Telemetry",
    "TelemetryEvent",
    "Tracer",
    "activate",
    "current",
    "deactivate",
    "emit_event",
    "next_session_id",
]
