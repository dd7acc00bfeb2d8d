"""Observability: tracing, structured logging, trace storage/export.

See DESIGN.md §7 for the span model, propagation, sampling, and export
format.
"""

from repro.obs.log import StructuredLogger, get_logger, set_level
from repro.obs.store import TraceStore
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanCollector,
    SpanContext,
    Tracer,
    activate_tracer,
    active_tracer,
    current_context,
    current_span,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    use_span,
)
from repro.obs.export import render_span_tree, to_chrome_trace

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanCollector",
    "SpanContext",
    "StructuredLogger",
    "TraceStore",
    "Tracer",
    "activate_tracer",
    "active_tracer",
    "current_context",
    "current_span",
    "format_traceparent",
    "get_logger",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "render_span_tree",
    "set_level",
    "to_chrome_trace",
    "use_span",
]
