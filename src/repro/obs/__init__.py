"""Observability: per-statement tracing, unified metrics, slow-query
capture, and exporters.

See ``docs/observability.md`` for the span taxonomy and the knob
(``ControllerConfig.tracing``) that turns this machinery on.
"""

from repro.obs.export import (
    parse_prometheus_text,
    render_json,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.registry import Counter, Gauge, MetricsRegistry, StreamingHistogram
from repro.obs.slowlog import SlowQueryLog, redact_sql
from repro.obs.trace import NULL_TRACE, Span, Trace

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NULL_TRACE",
    "SlowQueryLog",
    "Span",
    "StreamingHistogram",
    "Trace",
    "parse_prometheus_text",
    "redact_sql",
    "render_json",
    "render_prometheus",
    "sanitize_metric_name",
]
