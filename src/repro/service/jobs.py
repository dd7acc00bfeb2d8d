"""Job lifecycle: bounded queue, coalescing, timeouts, cancellation.

The serving core sits between the HTTP layer and the compute pool:

* **Bounded queue with backpressure** — at most ``max_queue``
  computations wait at once; a submission past that raises
  :class:`~repro.errors.QueueFullError`, which the HTTP layer maps to
  429 with a ``Retry-After`` hint derived from observed job latency.
* **Request coalescing** — submissions are keyed by the request's
  content hash (:meth:`~repro.service.protocol.JobRequest.fingerprint`,
  the same hash family the disk cache uses).  A submission identical to
  an in-flight computation attaches to it instead of enqueueing a
  second one: each client still gets its own job id and record, but one
  worker produces everyone's result.
* **Cache fast path** — before costing a queue slot, the executor's
  persistent cache is probed; a warm request completes synchronously.
* **Per-job timeout** — a computation exceeding ``job_timeout_s``
  fails every attached job with a timeout error; the abandoned pool
  task cannot poison later jobs (its future is discarded).
* **Cancellation** — ``DELETE /v1/jobs/<id>`` detaches one job.  Only
  when the *last* attached job is cancelled is the computation itself
  cancelled (still-queued work is skipped; running work is abandoned) —
  one impatient client cannot kill another client's result.

Everything here runs on the event loop; the only cross-thread edge is
``asyncio.wrap_future`` over the pool's concurrent future.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import QueueFullError, ServiceError
# Transient pool failures get the sweep's per-case retry budget,
# backoff schedule and transient classification.
from repro.experiments.sweep import (
    DEFAULT_MAX_ATTEMPTS,
    TRANSIENT_ERRORS,
    retry_delay,
)
from repro.obs.log import get_logger
from repro.obs.trace import NOOP_SPAN, Tracer, use_span
from repro.service.protocol import JobRequest

_log = get_logger("repro.service.jobs")

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: Every state a job can be in (terminal: done/failed/cancelled).
JOB_STATES = (
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_DONE,
    STATE_FAILED,
    STATE_CANCELLED,
)

_TERMINAL = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)


def _transient_job_error(exc: BaseException) -> bool:
    """Whether a pool exception is worth a retry on a fresh pool: a
    worker died (the pool broke) or the machine hiccuped."""
    return isinstance(exc, (BrokenProcessPool,) + TRANSIENT_ERRORS)


def _new_job_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Job:
    """One client-visible submission.

    Attributes:
        id: Opaque job id (the ``/v1/jobs/<id>`` handle).
        request: The validated, canonical request.
        state: One of :data:`JOB_STATES`.
        coalesced: Whether this job attached to an existing in-flight
            computation instead of enqueueing its own.
        cached: Whether the result came straight from the persistent
            cache (no queue slot, no pool dispatch).
        created_at / started_at / finished_at: Unix timestamps.
        result: The response document once ``done``.
        error: Failure description once ``failed``.
        failure: Structured failure record once ``failed`` —
            ``{"error_type", "message", "attempts", "transient"}`` —
            so clients can distinguish an exhausted retry budget from
            a deterministic failure without parsing ``error``.
    """

    id: str
    request: JobRequest
    state: str = STATE_QUEUED
    coalesced: bool = False
    cached: bool = False
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    failure: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self.state in _TERMINAL

    def to_json(self) -> Dict[str, Any]:
        """The job record served by ``GET /v1/jobs/<id>`` (no result —
        that lives behind ``/v1/results/<id>``)."""
        return {
            "id": self.id,
            "kind": self.request.kind,
            "params": self.request.params_dict(),
            "fingerprint": self.request.fingerprint(),
            "state": self.state,
            "coalesced": self.coalesced,
            "cached": self.cached,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "failure": self.failure,
        }


class _Computation:
    """One underlying unit of work, shared by >= 1 attached jobs."""

    def __init__(self, key: str, request: JobRequest, job: Job):
        self.key = key
        self.request = request
        self.jobs: List[Job] = [job]
        self.cancelled = False
        self.future = None  # the pool future, once dispatched
        self.span = NOOP_SPAN  # the job span (timing source), set by submit()
        self.attempts = 0  # pool submissions so far
        self.outcome: Optional[str] = None  # done/failed unless cancelled
        self.result: Optional[Dict[str, Any]] = None


class JobManager:
    """Owns every job record and the bounded computation queue.

    Args:
        executor: The compute backend (``probe_cache``/``submit``).
        max_queue: Bound on waiting computations (backpressure point).
        job_timeout_s: Wall-clock budget per computation; ``None`` or
            ``<= 0`` disables the timeout.
        dispatchers: Concurrent dispatch tasks (defaults to the
            executor's worker count so the pool stays saturated but
            never oversubscribed).
    """

    def __init__(
        self,
        executor,
        max_queue: int = 64,
        job_timeout_s: Optional[float] = 600.0,
        dispatchers: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        trace_store=None,
    ):
        if max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        self.executor = executor
        self.tracer = tracer if tracer is not None else Tracer(service="service")
        self.trace_store = trace_store
        self.max_queue = max_queue
        self.job_timeout_s = (
            job_timeout_s if job_timeout_s and job_timeout_s > 0 else None
        )
        self.dispatchers = dispatchers or getattr(executor, "workers", 1)
        self.jobs: Dict[str, Job] = {}
        #: Every computation dispatched to the pool, in dispatch order;
        #: ``/metrics`` folds their spans, attempts and results.
        self.computations: List[_Computation] = []
        #: Submissions bounced with 429 (they never enter ``jobs``).
        self.rejected = 0
        self._inflight: Dict[str, _Computation] = {}
        self._queue: "asyncio.Queue[_Computation]" = asyncio.Queue(
            maxsize=max_queue
        )
        self._tasks: List["asyncio.Task"] = []
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the dispatcher tasks."""
        if self._started:
            return
        self._started = True
        for idx in range(self.dispatchers):
            self._tasks.append(
                asyncio.get_running_loop().create_task(
                    self._dispatch_loop(), name=f"repro-dispatch-{idx}"
                )
            )

    async def close(self) -> None:
        """Cancel the dispatcher tasks and drop queued work."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._started = False

    # ------------------------------------------------------------------
    # submission / lookup / cancellation (called by the HTTP layer)
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Accept one job, resolving it the cheapest way available.

        Returns the job record (possibly already ``done`` on a cache
        hit).  Raises :class:`QueueFullError` when the queue is at
        capacity — the HTTP layer turns that into 429 + Retry-After.
        """
        key = request.fingerprint()
        job = Job(id=_new_job_id(), request=request)

        comp = self._inflight.get(key)
        if comp is not None and not comp.cancelled:
            job.coalesced = True
            job.state = comp.jobs[0].state if comp.jobs else STATE_QUEUED
            job.started_at = comp.jobs[0].started_at if comp.jobs else None
            comp.jobs.append(job)
            self.jobs[job.id] = job
            comp.span.add_event("coalesced", job_id=job.id)
            return job

        cached = self.executor.probe_cache(request)
        if cached is not None:
            now = time.time()
            job.cached = True
            job.state = STATE_DONE
            job.started_at = now
            job.finished_at = now
            job.result = cached
            self.jobs[job.id] = job
            span = self.tracer.start_span(
                "job",
                attributes={"kind": request.kind, "job_id": job.id,
                            "cached": True},
            )
            span.end()
            return job

        comp = _Computation(key, request, job)
        # The job span is the single timing source for queue-wait and
        # execution histograms, so it exists (timed) even when tracing
        # is off; its ids only materialise under a sampled trace.
        comp.span = self.tracer.start_span(
            "job",
            timed=True,
            attributes={"kind": request.kind, "job_id": job.id},
        )
        try:
            self._queue.put_nowait(comp)
        except asyncio.QueueFull:
            # local import: the telemetry module imports this one
            from repro.service.telemetry import retry_after_hint

            self.rejected += 1
            retry_after = retry_after_hint(self.computations)
            raise QueueFullError(
                f"job queue is full ({self.max_queue} pending); "
                f"retry in ~{retry_after}s",
                status=429,
                retry_after=retry_after,
            ) from None
        self._inflight[key] = comp
        self.jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job record, or ``None``."""
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Job:
        """Cancel one job (``DELETE /v1/jobs/<id>``).

        Detaches the job from its computation; the computation itself
        is only cancelled when no attached job remains.  Raises
        ``KeyError`` for unknown ids and :class:`ServiceError` (mapped
        to 409) for jobs already in a terminal state.
        """
        job = self.jobs[job_id]
        if job.terminal:
            raise ServiceError(
                f"job {job_id} is already {job.state}", status=409
            )
        job.state = STATE_CANCELLED
        job.finished_at = time.time()

        comp = self._find_computation(job)
        if comp is not None:
            comp.jobs = [j for j in comp.jobs if j.id != job.id]
            if not comp.jobs:
                comp.cancelled = True
                comp.span.set_status("cancelled")
                comp.span.end()
                if comp.future is not None:
                    comp.future.cancel()
                if self._inflight.get(comp.key) is comp:
                    del self._inflight[comp.key]
        return job

    def _find_computation(self, job: Job) -> Optional[_Computation]:
        comp = self._inflight.get(job.request.fingerprint())
        if comp is not None and any(j.id == job.id for j in comp.jobs):
            return comp
        return None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            comp = await self._queue.get()
            try:
                await self._run_computation(comp)
            finally:
                self._queue.task_done()

    async def _run_computation(self, comp: _Computation) -> None:
        if comp.cancelled:
            comp.span.end()
            return
        now = time.time()
        for job in comp.jobs:
            job.state = STATE_RUNNING
            job.started_at = now
        self.computations.append(comp)
        comp.span.add_event("started")
        while True:
            comp.attempts += 1
            try:
                # Activate the job span around dispatch so the real
                # executor can thread the trace context into the pool
                # payload (stub executors just ignore the ambient span).
                with use_span(comp.span):
                    comp.future = self.executor.submit(comp.request)
            except Exception as exc:  # pool is gone / cannot spawn
                self._finish_failed(
                    comp, f"dispatch failed: {exc}",
                    error_type=type(exc).__name__, attempts=comp.attempts,
                )
                return
            # Cancelling the wrapper cancels the pool future too.
            waited = asyncio.wrap_future(comp.future)
            try:
                # wait() returns, where awaiting the future would raise,
                # when cancel() cancels the pool future: only this
                # task's own cancellation may end the dispatcher.
                await asyncio.wait({waited}, timeout=self.job_timeout_s)
            except asyncio.CancelledError:
                waited.cancel()
                raise
            if waited.cancelled():
                return  # cancel() detached the last job, ended the span
            if not waited.done():
                waited.cancel()
                self._finish_failed(
                    comp,
                    f"job timed out after {self.job_timeout_s:g}s",
                    error_type="TimeoutError", attempts=comp.attempts,
                    transient=True,
                )
                return
            try:
                result = waited.result()
            except Exception as exc:
                # Transient infrastructure failures (a worker died, the
                # pool broke) are retried on a rebuilt pool; the job's
                # computation itself is deterministic, so anything else
                # fails immediately.
                transient = _transient_job_error(exc)
                if (transient and comp.attempts < DEFAULT_MAX_ATTEMPTS
                        and not comp.cancelled):
                    comp.span.add_event(
                        "retry", attempt=comp.attempts,
                        error=type(exc).__name__,
                    )
                    _log.warning(
                        "job retry after transient pool failure",
                        kind=comp.request.kind, attempt=comp.attempts,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    recover = getattr(self.executor, "recover", None)
                    if recover is not None:
                        try:
                            recover()
                        except Exception:
                            pass  # next submit() finds its own fallback
                    await asyncio.sleep(retry_delay(comp.attempts))
                    continue
                self._finish_failed(
                    comp, f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__, attempts=comp.attempts,
                    transient=transient,
                )
                return
            else:
                comp.span.set_attribute("attempts", comp.attempts)
                self._finish_done(comp, result)
                return

    def _release(self, comp: _Computation) -> None:
        if self._inflight.get(comp.key) is comp:
            del self._inflight[comp.key]

    def _finish_done(self, comp: _Computation, result: Dict[str, Any]) -> None:
        self._release(comp)
        # Spans collected inside the pool ride the result document under
        # a reserved key; strip them before the result is stored/served.
        if isinstance(result, dict):
            pool_spans = result.pop("__spans__", None)
            if pool_spans and self.trace_store is not None:
                self.trace_store.add_many(pool_spans)
        comp.span.end()
        if comp.cancelled:
            return  # every attached job was cancelled mid-flight
        comp.outcome = STATE_DONE
        comp.result = result
        now = time.time()
        for job in comp.jobs:
            job.state = STATE_DONE
            job.finished_at = now
            job.result = result

    def _finish_failed(
        self,
        comp: _Computation,
        error: str,
        error_type: str = "ServiceError",
        attempts: int = 1,
        transient: bool = False,
    ) -> None:
        self._release(comp)
        comp.span.set_status("error", f"{error_type}: {error}")
        comp.span.set_attribute("attempts", attempts)
        comp.span.end()
        if comp.cancelled:
            return
        comp.outcome = STATE_FAILED
        _log.warning(
            "job failed", error_type=error_type, message=error,
            attempts=attempts, transient=transient,
        )
        failure = {
            "error_type": error_type,
            "message": error,
            "attempts": attempts,
            "transient": transient,
        }
        now = time.time()
        for job in comp.jobs:
            job.state = STATE_FAILED
            job.finished_at = now
            job.error = error
            job.failure = dict(failure)

    # ------------------------------------------------------------------
    # introspection (for /healthz)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Queue/jobs facts for ``/healthz``."""
        return {
            "jobs": len(self.jobs),
            "inflight": len(self._inflight),
            "queue_depth": self._queue.qsize(),
            "max_queue": self.max_queue,
            "dispatchers": self.dispatchers,
            "job_timeout_s": self.job_timeout_s,
        }
