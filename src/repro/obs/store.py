"""In-memory ring-buffer trace store behind ``GET /v1/traces/<id>``.

Traces are kept per trace id in insertion order; when ``max_traces`` is
exceeded the least-recently-touched trace is evicted.  Each trace is a
:class:`~repro.obs.trace.SpanCollector` capped at ``max_spans``
(aggregate spans fold instead of appending, so pipeline-stage volume
does not count against the cap beyond its first occurrence per parent
and service).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.trace import Span, SpanCollector

__all__ = ["TraceStore"]


class TraceStore:
    """Thread-safe bounded store of finished span documents."""

    def __init__(self, max_traces: int = 256, max_spans: int = 5000):
        self.max_traces = max_traces
        self.max_spans = max_spans
        self._traces: "OrderedDict[str, SpanCollector]" = OrderedDict()
        self._lock = threading.Lock()

    def sink(self, span: Span) -> None:
        """Adapter so a :class:`~repro.obs.trace.Tracer` can sink here."""
        self.add(span.to_json())

    def add(self, doc: Dict[str, Any]) -> None:
        trace_id = doc.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is None:
                trace = self._traces[trace_id] = SpanCollector(self.max_spans)
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            else:
                self._traces.move_to_end(trace_id)
            trace.add_json(doc)

    def add_many(self, docs: Iterable[Dict[str, Any]]) -> None:
        for doc in docs:
            self.add(doc)

    def get(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """Spans of ``trace_id`` (copies), or ``None`` if unknown."""
        with self._lock:
            trace = self._traces.get(trace_id)
            return None if trace is None else trace.snapshot()

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces.keys())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": sum(len(t) for t in self._traces.values()),
                "dropped": sum(t.dropped for t in self._traces.values()),
            }
