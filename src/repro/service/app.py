"""HTTP framing and routing of the analysis service.

A deliberately small HTTP/1.1 server on raw ``asyncio`` streams — the
stdlib's ``http.server`` is synchronous, and the service must multiplex
slow jobs, health checks and metrics scrapes on one event loop.  One
request per connection (``Connection: close``): clients of an analysis
service poll at human timescales, so connection reuse buys nothing and
keep-alive bookkeeping would be the largest piece of code in the file.

Routes:

====================  ====================================================
``POST /v1/jobs``     submit a job (202; 400 invalid, 429 queue full)
``GET /v1/jobs/<id>`` job record / state (404 unknown)
``GET /v1/results/<id>``  result document (409 still running, 410
                      cancelled, 500 failed)
``DELETE /v1/jobs/<id>``  cancel (409 already terminal)
``GET /healthz``      liveness + queue/executor facts
``GET /metrics``      Prometheus text exposition, folded from the jobs
``GET /v1/traces/<id>``  collected trace (404 unknown)
====================  ====================================================
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Union

from repro.errors import ProtocolError, QueueFullError, ServiceError
from repro.obs.log import get_logger
from repro.obs.trace import (
    NOOP_SPAN,
    Tracer,
    activate_tracer,
    format_traceparent,
    parse_traceparent,
)
from repro.service.jobs import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    JobManager,
)
from repro.service.protocol import parse_job
from repro.service.telemetry import render

_log = get_logger("repro.service.app")

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024
_READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _Request:
    """One parsed HTTP request."""

    def __init__(self, method: str, path: str,
                 headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        """The body parsed as JSON (raises ``ProtocolError``)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")


class _Response:
    """One response: status + JSON-able payload (or preformatted text)."""

    def __init__(self, status: int, payload: Union[Dict[str, Any], str],
                 content_type: Optional[str] = None,
                 headers: Optional[Dict[str, str]] = None):
        self.status = status
        self.payload = payload
        self.content_type = content_type or (
            "text/plain; charset=utf-8" if isinstance(payload, str)
            else "application/json"
        )
        self.headers = headers or {}

    def encode(self) -> bytes:
        if isinstance(self.payload, str):
            body = self.payload.encode("utf-8")
        else:
            body = (json.dumps(self.payload) + "\n").encode("utf-8")
        reason = _REASONS.get(self.status, "Status")
        head = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in self.headers.items():
            head.append(f"{name}: {value}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


async def _read_request(reader: "asyncio.StreamReader") -> Optional[_Request]:
    """Parse one request; ``None`` when the client hung up early.

    Raises ``ProtocolError`` (with an HTTP status attached via its
    message) through ``ServiceError`` for framing violations.
    """
    try:
        header_blob = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), _READ_TIMEOUT_S
        )
    except asyncio.IncompleteReadError:
        return None
    except asyncio.LimitOverrunError:
        raise ServiceError("request headers too large", status=431)
    except asyncio.TimeoutError:
        raise ServiceError("timed out reading request", status=408)
    lines = header_blob.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServiceError(f"malformed request line: {lines[0]!r}",
                           status=400)
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ServiceError(f"bad Content-Length: {length_text!r}",
                           status=400) from None
    if length > _MAX_BODY_BYTES:
        raise ServiceError(
            f"body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte cap",
            status=413,
        )
    body = b""
    if length:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), _READ_TIMEOUT_S
            )
        except asyncio.IncompleteReadError:
            return None
        except asyncio.TimeoutError:
            raise ServiceError("timed out reading request body", status=408)
    path = target.split("?", 1)[0]
    return _Request(method, path, headers, body)


class ServiceApp:
    """Routing over a :class:`JobManager` and its executor."""

    def __init__(self, manager: JobManager,
                 tracer: Optional[Tracer] = None, traces=None):
        self.manager = manager
        self.executor = manager.executor
        # The only counts /metrics cannot fold from a record.
        self.http_requests = 0
        self.http_errors = 0
        # Tracer and trace store are *per app* (not process globals):
        # tests boot several services in one process, and each must
        # keep its own spans.
        self.tracer = tracer if tracer is not None else manager.tracer
        self.traces = traces if traces is not None else manager.trace_store

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the manager's dispatcher tasks."""
        await self.manager.start()

    async def close(self) -> None:
        """Stop dispatchers and the compute pool."""
        await self.manager.close()
        self.executor.shutdown()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def handle_connection(self, reader, writer) -> None:
        """``asyncio.start_server`` callback: one request, one response."""
        try:
            response = await self._safe_respond(reader)
            if response is not None:
                writer.write(response.encode())
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _safe_respond(self, reader):
        try:
            request = await _read_request(reader)
        except ServiceError as exc:
            self.http_requests += 1
            self.http_errors += 1
            return _Response(exc.status or 400, {"error": str(exc)})
        if request is None:  # client went away before a full request
            return None
        self.http_requests += 1
        span = self._request_span(request)
        with activate_tracer(self.tracer):
            with span:
                try:
                    response = self.route(request)
                except ProtocolError as exc:
                    response = _Response(400, {"error": str(exc)})
                except QueueFullError as exc:
                    response = _Response(
                        429,
                        {"error": str(exc), "retry_after": exc.retry_after},
                        headers={"Retry-After": str(int(exc.retry_after or 1))},
                    )
                except ServiceError as exc:
                    response = _Response(exc.status or 500, {"error": str(exc)})
                except Exception as exc:  # defensive: never kill the connection task
                    response = _Response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                if span.recording:
                    span.set_attribute("http.status", response.status)
                    if response.status >= 400:
                        error = None
                        if isinstance(response.payload, dict):
                            error = response.payload.get("error")
                        span.set_status("error", error or str(response.status))
                    # Echo the trace id so callers that did not send a
                    # traceparent learn which trace their request rooted.
                    response.headers.setdefault(
                        "traceparent", format_traceparent(span.context)
                    )
        if response.status >= 400:
            self.http_errors += 1
        return response

    def _request_span(self, request: _Request):
        """The span for one request, or :data:`NOOP_SPAN`.

        A sampled incoming ``traceparent`` is always honoured (that is
        how a client's trace continues into the service).  Without one, only POSTs may root a new trace (subject
        to the sampling rate) — polls, result fetches and metrics
        scrapes never start traces of their own.
        """
        ctx = parse_traceparent(request.headers.get("traceparent"))
        name = f"http {request.method} {request.path}"
        if ctx is not None:
            if not ctx.sampled:
                return NOOP_SPAN
            return self.tracer.start_span(name, parent=ctx)
        if request.method == "POST":
            return self.tracer.start_span(name, parent=None, root=True)
        return NOOP_SPAN

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, request: _Request) -> _Response:
        """Dispatch one parsed request to its handler."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            return self._require(method, "GET", self._healthz)(request)
        if path == "/metrics":
            return self._require(method, "GET", self._metrics)(request)
        if path == "/v1/jobs":
            return self._require(method, "POST", self._submit)(request)
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if method == "GET":
                return self._job_record(job_id)
            if method == "DELETE":
                return self._cancel(job_id)
            raise ServiceError(f"{method} not allowed here", status=405)
        if path.startswith("/v1/results/"):
            job_id = path[len("/v1/results/"):]
            return self._require(
                method, "GET", lambda _req: self._result(job_id)
            )(request)
        if path.startswith("/v1/traces/"):
            trace_id = path[len("/v1/traces/"):]
            return self._require(
                method, "GET", lambda _req: self._trace(trace_id)
            )(request)
        raise ServiceError(f"no route for {method} {request.path}",
                           status=404)

    @staticmethod
    def _require(method: str, expected: str, handler):
        if method != expected:
            raise ServiceError(
                f"{method} not allowed here (use {expected})", status=405
            )
        return handler

    def _trace(self, trace_id: str) -> _Response:
        """One collected trace from the service's ring-buffer store."""
        spans = self.traces.get(trace_id) if self.traces is not None else None
        if not spans:
            raise ServiceError(f"unknown trace {trace_id!r}", status=404)
        from repro.obs.export import sort_spans

        return _Response(
            200, {"trace_id": trace_id, "spans": sort_spans(spans)}
        )

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _submit(self, request: _Request) -> _Response:
        job_request = parse_job(request.json())
        job = self.manager.submit(job_request)  # may raise QueueFullError
        return _Response(202, {"job": job.to_json()})

    def _job_record(self, job_id: str) -> _Response:
        job = self.manager.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return _Response(200, {"job": job.to_json()})

    def _result(self, job_id: str) -> _Response:
        job = self.manager.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        if job.state == STATE_DONE:
            return _Response(
                200, {"id": job.id, "state": job.state, "result": job.result}
            )
        if job.state == STATE_CANCELLED:
            raise ServiceError(f"job {job_id} was cancelled", status=410)
        if job.state == STATE_FAILED:
            # Structured body, not an opaque ServiceError: clients get
            # the failure record (error type, attempts, transient) next
            # to the "error" string the older protocol exposed.
            return _Response(
                500,
                {"id": job.id, "state": job.state,
                 "error": f"job {job_id} failed: {job.error}",
                 "failure": job.failure},
            )
        return _Response(
            409,
            {"id": job.id, "state": job.state,
             "error": "result not ready yet"},
            headers={"Retry-After": "1"},
        )

    def _cancel(self, job_id: str) -> _Response:
        try:
            job = self.manager.cancel(job_id)
        except KeyError:
            raise ServiceError(f"unknown job {job_id!r}", status=404) from None
        return _Response(200, {"job": job.to_json()})

    def _healthz(self, _request: _Request) -> _Response:
        import repro

        return _Response(200, {
            "status": "ok",
            "version": repro.__version__,
            "jobs": self.manager.stats(),
            "executor": self.executor.describe(),
        })

    def _metrics(self, _request: _Request) -> _Response:
        return _Response(
            200, render(self.manager, self.http_requests, self.http_errors),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )


def build_service(
    executor=None,
    *,
    workers: Optional[int] = None,
    cache_dir=None,
    max_cache_bytes: Optional[int] = None,
    max_queue: int = 64,
    job_timeout_s: Optional[float] = 600.0,
    dispatchers: Optional[int] = None,
    trace_sample: float = 1.0,
) -> ServiceApp:
    """Wire executor + job manager into a routable app.

    Call from inside the event loop that will run the server (the job
    queue binds to it).  ``executor`` is injectable so tests can drive
    the queue with a hand-controlled backend.

    ``trace_sample`` is the head-based sampling rate for new traces
    rooted at this service (``--trace-sample``; ``0`` disables tracing
    — job latency histograms still work, they read the timing-only span
    path).  The service's own spans are labelled ``"service"`` in
    exported traces, its pool's ``"pool"``.
    """
    from repro.obs.store import TraceStore
    from repro.service.executor import AnalysisExecutor

    if executor is None:
        executor = AnalysisExecutor(
            workers=workers,
            cache_dir=cache_dir,
            max_cache_bytes=max_cache_bytes,
        )
    traces = TraceStore()
    tracer = Tracer(
        service="service",
        sample=trace_sample,
        sink=traces.sink if trace_sample > 0 else None,
    )
    manager = JobManager(
        executor,
        max_queue=max_queue,
        job_timeout_s=job_timeout_s,
        dispatchers=dispatchers,
        tracer=tracer,
        trace_store=traces,
    )
    return ServiceApp(manager, tracer=tracer, traces=traces)


async def run_server(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
    stop_event: Optional["asyncio.Event"] = None,
) -> None:
    """Serve ``app`` until ``stop_event`` is set (or forever).

    Args:
        app: The routable service.
        host / port: Bind address; port 0 picks an ephemeral port.
        ready: Optional callback invoked with the bound port once the
            socket is listening and dispatchers are running.
        stop_event: Set it to shut the server down cleanly.
    """
    server = await asyncio.start_server(
        app.handle_connection, host=host, port=port, limit=_MAX_HEADER_BYTES
    )
    await app.start()
    bound_port = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(bound_port)
    if stop_event is None:
        stop_event = asyncio.Event()
    try:
        await stop_event.wait()
    finally:
        server.close()
        await server.wait_closed()
        await app.close()


class BackgroundServer:
    """The service on a daemon thread — for tests and ``--self-check``.

    Runs its own event loop, exposes the bound ``port`` (and ``url``)
    once :meth:`start` returns, and tears everything down in
    :meth:`stop`.  Usable as a context manager.

    Any keyword arguments are forwarded to :func:`build_service`
    (``executor=`` injects a stub backend under test).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **build_kwargs):
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self._build_kwargs = build_kwargs
        self.app: Optional[ServiceApp] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._stop_event: Optional["asyncio.Event"] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BackgroundServer":
        """Boot the loop thread; blocks until the socket listens."""
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("service failed to start within 30s")
        if self._startup_error is not None:
            raise ServiceError(
                f"service failed to start: {self._startup_error}"
            )
        return self

    def stop(self) -> None:
        """Shut the server down and join the loop thread."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.app = build_service(**self._build_kwargs)

        def ready(bound_port: int) -> None:
            self.port = bound_port
            self._ready.set()

        await run_server(
            self.app,
            host=self.host,
            port=self._requested_port,
            ready=ready,
            stop_event=self._stop_event,
        )
