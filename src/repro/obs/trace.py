"""Distributed tracing primitives (stdlib only).

The model is a small subset of OpenTelemetry, shaped to this repo's
needs:

* :class:`SpanContext` — (trace id, span id, sampled flag), serialised
  as a W3C ``traceparent`` header (``00-<32 hex>-<16 hex>-<01|00>``).
* :class:`Span` — named interval with monotonic-clock duration, a wall
  start for export, attributes, timestamped events, and a status.
* :class:`Tracer` — makes spans.  Head-based sampling happens once at
  the root; children inherit the decision through either the ambient
  current span (a ``contextvars`` slot, so it survives ``await``) or an
  explicit ``parent``.

Three tiers of span keep the disabled path near free:

1. sampled → recording :class:`Span` with ids, delivered to the
   tracer's sink on :meth:`Span.end`;
2. unsampled but ``timed=True`` → a timing-only :class:`Span` (no id
   generation, never exported).  Only the service's job span uses
   this tier: the ``/metrics`` latency histograms read it whether or
   not the job is traced;
3. otherwise → the shared :data:`NOOP_SPAN` singleton.

Spans with ``aggregate=True`` (pipeline stages, which fire hundreds of
times per optimize) are statistically merged by :class:`SpanCollector`
keyed on ``(trace_id, parent_id, name, service)``, so stage detail
stays visible without unbounded span volume.

Tracers are not process globals: several services share one process
in tests (:class:`~repro.service.app.BackgroundServer`), so each
:class:`~repro.service.app.ServiceApp`, pool job or ``repro optimize
--profile`` run selects its own through the :func:`activate_tracer`
contextvar.  Outside one, :func:`active_tracer` is a disabled tracer.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "SpanContext",
    "Span",
    "NOOP_SPAN",
    "Tracer",
    "SpanCollector",
    "parse_traceparent",
    "format_traceparent",
    "new_trace_id",
    "new_span_id",
    "current_span",
    "current_context",
    "use_span",
    "active_tracer",
    "activate_tracer",
]

_TRACEPARENT_VERSION = "00"
_HEX = set("0123456789abcdef")


def new_trace_id() -> str:
    return "%032x" % random.getrandbits(128)


def new_span_id() -> str:
    return "%016x" % random.getrandbits(64)


class SpanContext:
    """Propagatable identity of a span: trace id, span id, sampled bit."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, sampled={self.sampled})"
        )


def format_traceparent(ctx: SpanContext) -> str:
    """Render ``ctx`` as a W3C ``traceparent`` header value."""
    flags = "01" if ctx.sampled else "00"
    return f"{_TRACEPARENT_VERSION}-{ctx.trace_id}-{ctx.span_id}-{flags}"


def _is_hex(text: str) -> bool:
    return bool(text) and all(ch in _HEX for ch in text)


def parse_traceparent(header: Optional[str]) -> Optional[SpanContext]:
    """Parse a ``traceparent`` header; ``None`` for anything malformed.

    Tolerant by design: a bad header from a peer must never fail a
    request, it just starts an untraced one.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if len(span_id) != 16 or not _is_hex(span_id):
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return SpanContext(trace_id, span_id, sampled)


class Span:
    """A timed operation, recording (has a context) or timing-only."""

    __slots__ = (
        "name",
        "context",
        "parent_id",
        "service",
        "aggregate",
        "attributes",
        "events",
        "status",
        "status_message",
        "start_wall",
        "_start_mono",
        "_end_mono",
        "_sink",
        "_token",
    )

    def __init__(
        self,
        name: str,
        context: Optional[SpanContext] = None,
        parent_id: Optional[str] = None,
        service: str = "repro",
        aggregate: bool = False,
        attributes: Optional[Dict[str, Any]] = None,
        sink: Optional[Callable[["Span"], None]] = None,
    ):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.service = service
        self.aggregate = aggregate
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.events: List[Tuple[str, float, Dict[str, Any]]] = []
        self.status = "ok"
        self.status_message: Optional[str] = None
        self.start_wall = time.time()
        self._start_mono = time.perf_counter()
        self._end_mono: Optional[float] = None
        self._sink = sink
        self._token: Optional[contextvars.Token] = None

    # -- introspection -------------------------------------------------
    @property
    def recording(self) -> bool:
        return self.context is not None

    @property
    def duration_s(self) -> float:
        end = self._end_mono
        if end is None:
            end = time.perf_counter()
        return end - self._start_mono

    @property
    def ended(self) -> bool:
        return self._end_mono is not None

    def elapsed_s(self) -> float:
        return time.perf_counter() - self._start_mono

    def event_offset(self, name: str, default: Optional[float] = None) -> Optional[float]:
        """Seconds from span start to the first event called ``name``."""
        for ev_name, offset, _attrs in self.events:
            if ev_name == name:
                return offset
        return default

    # -- mutation ------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, attrs: Dict[str, Any]) -> None:
        self.attributes.update(attrs)

    def add_event(self, name: str, **attrs: Any) -> None:
        self.events.append((name, self.elapsed_s(), attrs))

    def set_status(self, status: str, message: Optional[str] = None) -> None:
        self.status = status
        if message is not None:
            self.status_message = message

    def end(self) -> None:
        if self._end_mono is not None:
            return
        self._end_mono = time.perf_counter()
        if self._sink is not None:
            self._sink(self)

    # -- context management --------------------------------------------
    def __enter__(self) -> "Span":
        if self.context is not None and self._token is None:
            self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        if exc_type is not None and self.status == "ok":
            self.set_status("error", f"{exc_type.__name__}: {exc}")
        self.end()
        return False

    # -- serialisation -------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        ctx = self.context
        doc: Dict[str, Any] = {
            "name": self.name,
            "trace_id": ctx.trace_id if ctx else None,
            "span_id": ctx.span_id if ctx else None,
            "parent_id": self.parent_id,
            "service": self.service,
            "start_unix_s": self.start_wall,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.status_message:
            doc["status_message"] = self.status_message
        if self.aggregate:
            doc["aggregate"] = True
            doc["count"] = 1
        if self.attributes:
            doc["attributes"] = dict(self.attributes)
        if self.events:
            doc["events"] = [
                {"name": name, "offset_s": offset, "attributes": attrs}
                for name, offset, attrs in self.events
            ]
        return doc


class _NoopSpan:
    """Shared do-nothing span; the disabled-tracing fast path."""

    __slots__ = ()

    name = "noop"
    context = None
    parent_id = None
    service = "repro"
    aggregate = False
    attributes: Dict[str, Any] = {}
    events: List[Tuple[str, float, Dict[str, Any]]] = []
    status = "ok"
    status_message = None
    recording = False
    duration_s = 0.0
    ended = True

    def elapsed_s(self) -> float:
        return 0.0

    def event_offset(self, name: str, default: Optional[float] = None):
        return default

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, attrs: Dict[str, Any]) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def set_status(self, status: str, message: Optional[str] = None) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()

SpanLike = Union[Span, _NoopSpan]

_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_current_span", default=None
)


def current_span() -> Optional[Span]:
    """The innermost *recording* span in this context, if any."""
    return _CURRENT_SPAN.get()


def current_context() -> Optional[SpanContext]:
    span = _CURRENT_SPAN.get()
    return span.context if span is not None else None


@contextlib.contextmanager
def use_span(span: SpanLike) -> Iterator[SpanLike]:
    """Make ``span`` the ambient parent without ending it on exit."""
    if isinstance(span, Span) and span.context is not None:
        token = _CURRENT_SPAN.set(span)
        try:
            yield span
        finally:
            _CURRENT_SPAN.reset(token)
    else:
        yield span


_PARENT_FROM_CONTEXT = object()


class Tracer:
    """Creates spans; owns the sampling decision and the export sink."""

    def __init__(
        self,
        service: str = "repro",
        sample: float = 0.0,
        sink: Optional[Callable[[Span], None]] = None,
        rng: Optional[Callable[[], float]] = None,
    ):
        self.service = service
        self.sample = float(sample)
        self.sink = sink
        self._rng = rng or random.random

    @property
    def enabled(self) -> bool:
        return self.sink is not None and self.sample > 0.0

    def _sample_root(self) -> bool:
        if not self.enabled:
            return False
        if self.sample >= 1.0:
            return True
        return self._rng() < self.sample

    def start_span(
        self,
        name: str,
        parent: Any = _PARENT_FROM_CONTEXT,
        root: bool = False,
        timed: bool = False,
        aggregate: bool = False,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> SpanLike:
        """Make a span.

        ``parent`` may be a :class:`Span`, a :class:`SpanContext` (e.g.
        from a parsed ``traceparent``), ``None`` (no parent), or omitted
        to inherit the ambient current span.  Without a sampled parent a
        new trace is only rooted when ``root=True`` wins the sampling
        rate; otherwise the span is timing-only (``timed=True``) or the
        no-op singleton.
        """
        ctx: Optional[SpanContext] = None
        if parent is _PARENT_FROM_CONTEXT:
            ambient = _CURRENT_SPAN.get()
            ctx = ambient.context if ambient is not None else None
        elif isinstance(parent, SpanContext):
            ctx = parent
        elif isinstance(parent, Span):
            ctx = parent.context

        if ctx is not None and ctx.sampled and self.sink is not None:
            return Span(
                name,
                context=SpanContext(ctx.trace_id, new_span_id(), True),
                parent_id=ctx.span_id,
                service=self.service,
                aggregate=aggregate,
                attributes=attributes,
                sink=self.sink,
            )
        if root and ctx is None and self._sample_root():
            return Span(
                name,
                context=SpanContext(new_trace_id(), new_span_id(), True),
                parent_id=None,
                service=self.service,
                aggregate=aggregate,
                attributes=attributes,
                sink=self.sink,
            )
        if timed:
            return Span(
                name,
                context=None,
                service=self.service,
                aggregate=aggregate,
                attributes=attributes,
            )
        return NOOP_SPAN


_DISABLED_TRACER = Tracer()

_ACTIVE_TRACER: "contextvars.ContextVar[Optional[Tracer]]" = contextvars.ContextVar(
    "repro_active_tracer", default=None
)


def active_tracer() -> Tracer:
    """The tracer activated for this context, else a disabled one."""
    return _ACTIVE_TRACER.get() or _DISABLED_TRACER


@contextlib.contextmanager
def activate_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Select ``tracer`` for this context (request / pool job scope)."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


class SpanCollector:
    """Thread-safe list sink with aggregate folding and a hard cap.

    Aggregate spans (``aggregate=True``) are merged in place by
    ``(trace_id, parent_id, name, service)``: durations and numeric
    attributes sum, ``count`` increments, the earliest wall start wins.
    Everything else appends until ``limit`` spans, after which additions
    are dropped (and counted in ``dropped``).
    """

    def __init__(self, limit: int = 2000):
        self.limit = limit
        self.dropped = 0
        self._spans: List[Dict[str, Any]] = []
        self._agg: Dict[Tuple, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._spans)

    def add(self, span: Span) -> None:
        self.add_json(span.to_json())

    def add_json(self, doc: Dict[str, Any]) -> None:
        with self._lock:
            key = None
            if doc.get("aggregate"):
                key = (doc.get("trace_id"), doc.get("parent_id"),
                       doc.get("name"), doc.get("service"))
                idx = self._agg.get(key)
                if idx is not None:
                    fold_aggregate(self._spans[idx], doc)
                    return
            if len(self._spans) >= self.limit:
                self.dropped += 1
                return
            if key is not None:
                self._agg[key] = len(self._spans)
            self._spans.append(dict(doc))

    def snapshot(self) -> List[Dict[str, Any]]:
        """Copies of the spans collected so far; the collector keeps them."""
        with self._lock:
            return [dict(doc) for doc in self._spans]

    def drain(self) -> List[Dict[str, Any]]:
        with self._lock:
            spans, self._spans, self._agg = self._spans, [], {}
            return spans


def fold_aggregate(into: Dict[str, Any], doc: Dict[str, Any]) -> None:
    """Merge aggregate span ``doc`` into the stored ``into`` document."""
    into["count"] = into.get("count", 1) + doc.get("count", 1)
    into["duration_s"] = into.get("duration_s", 0.0) + doc.get("duration_s", 0.0)
    start = doc.get("start_unix_s")
    if start is not None and start < into.get("start_unix_s", float("inf")):
        into["start_unix_s"] = start
    if doc.get("status") == "error":
        into["status"] = "error"
        if doc.get("status_message"):
            into["status_message"] = doc["status_message"]
    attrs = doc.get("attributes")
    if attrs:
        merged = into.setdefault("attributes", {})
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                base = merged.get(key, 0)
                if isinstance(base, (int, float)) and not isinstance(base, bool):
                    merged[key] = base + value
                    continue
            merged.setdefault(key, value)
