"""Counters, gauges and latency histograms for the analysis service.

A tiny Prometheus-text-format metrics registry: no labels machinery, no
external client library — just thread-safe counters (executor callbacks
and the HTTP layer run on different threads under test harnesses),
gauges, and fixed-bucket cumulative histograms, rendered by
:meth:`MetricsRegistry.render` behind ``GET /metrics``.

:class:`ServiceTelemetry` pre-registers the service's vocabulary
(``jobs_submitted``, ``jobs_completed``, ``cache_hits``,
``job_latency_seconds``, ...) so every subsystem increments the same
instances.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond cache hits up to
#: multi-minute sweep jobs.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0,
)


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without a dot)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()
                                  and abs(value) < 1e15):
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value

    def samples(self) -> List[str]:
        """Exposition lines of this metric."""
        return [f"{self.name} {_format_value(self.value)}"]


class Gauge:
    """A value that can go up and down (queue depth, in-flight jobs)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def samples(self) -> List[str]:
        """Exposition lines of this metric."""
        return [f"{self.name} {_format_value(self.value)}"]


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe(v)`` increments every bucket whose upper bound is >= v,
    plus the implicit ``+Inf`` bucket, the running sum and the count.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.help_text = help_text
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one measurement."""
        with self._lock:
            for idx, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[idx] += 1
            self._counts[-1] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def mean(self, default: float = 0.0) -> float:
        """Average observation (``default`` when empty)."""
        with self._lock:
            if not self._count:
                return default
            return self._sum / self._count

    def samples(self) -> List[str]:
        """Exposition lines: cumulative buckets + sum + count."""
        with self._lock:
            counts = list(self._counts)
            total, sum_ = self._count, self._sum
        lines = []
        # observe() already increments every bucket above the value, so
        # the stored counts are cumulative, as the format requires.
        for bound, bucket in zip(self.bounds, counts):
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} '
                f"{bucket}"
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {counts[-1]}')
        lines.append(f"{self.name}_sum {_format_value(sum_)}")
        lines.append(f"{self.name}_count {total}")
        return lines


class MetricsRegistry:
    """An ordered collection of metrics with one text exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _register(self, factory, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, factory):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = factory(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get-or-create a counter."""
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get-or-create a gauge."""
        return self._register(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get-or-create a histogram."""
        return self._register(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str):
        """The registered metric, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            if metric.help_text:
                lines.append(f"# HELP {metric.name} {metric.help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + "\n"


class ServiceTelemetry:
    """The analysis service's metric vocabulary, pre-registered.

    Attributes (all live in :attr:`registry` and appear in
    ``GET /metrics``):
        jobs_submitted: Every accepted ``POST /v1/jobs``.
        jobs_completed: Jobs that reached the DONE state (including
            cache hits and coalesced followers).
        jobs_failed: Jobs that errored or timed out.
        jobs_cancelled: Jobs cancelled via ``DELETE /v1/jobs/<id>``.
        jobs_coalesced: Jobs attached to an identical in-flight
            computation instead of enqueueing a second one.
        jobs_rejected: Submissions bounced with HTTP 429 (queue full).
        cache_hits: Jobs answered from the persistent disk cache
            without touching the worker pool.
        computations: Payloads actually dispatched to the pool.
        http_requests: All HTTP requests served.
        http_errors: Responses with status >= 400.
        job_latency_seconds: End-to-end job latency histogram
            (queue wait + execution), derived from the job span.
        job_queue_wait_seconds: Histogram of submit→dispatch queue
            wait, derived from the job span's ``queued``/``started``
            events.
        job_execution_seconds: Histogram of dispatch→completion wall
            time (includes transient-retry backoff), derived from the
            job span.
        queue_depth: Current bounded-queue occupancy.
        jobs_inflight: Computations currently queued or running.
        pipeline_stage_hits: Analysis-pipeline cache hits (structural +
            dataflow + whole-result) across completed jobs.
        pipeline_stage_misses: Analysis-pipeline cache misses across
            completed jobs.
        pipeline_delta_runs: Delta (warm-start) re-analyses.
        pipeline_delta_fallbacks: Delta attempts that fell back to cold.
        pipeline_invalidations: Pipeline cache evictions/clears.
        job_retries: Computations retried after a transient
            infrastructure failure (worker died, pool broke).
        pool_rebuilds: Broken process pools replaced with fresh ones.
        sweep_case_failures: Use cases that failed permanently inside
            completed sweep jobs (partial results).
        sweep_case_retries: Per-use-case transient retries inside
            completed sweep jobs.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.jobs_submitted = r.counter(
            "jobs_submitted", "Jobs accepted via POST /v1/jobs")
        self.jobs_completed = r.counter(
            "jobs_completed", "Jobs that reached the DONE state")
        self.jobs_failed = r.counter(
            "jobs_failed", "Jobs that errored or timed out")
        self.jobs_cancelled = r.counter(
            "jobs_cancelled", "Jobs cancelled via DELETE /v1/jobs/<id>")
        self.jobs_coalesced = r.counter(
            "jobs_coalesced", "Jobs coalesced onto an in-flight computation")
        self.jobs_rejected = r.counter(
            "jobs_rejected", "Submissions rejected with 429 (queue full)")
        self.cache_hits = r.counter(
            "cache_hits", "Jobs served from the persistent disk cache")
        self.computations = r.counter(
            "computations", "Payloads dispatched to the worker pool")
        self.http_requests = r.counter(
            "http_requests", "HTTP requests served")
        self.http_errors = r.counter(
            "http_errors", "HTTP responses with status >= 400")
        self.job_latency_seconds = r.histogram(
            "job_latency_seconds",
            "End-to-end job latency (queue wait + execution)")
        self.job_queue_wait_seconds = r.histogram(
            "job_queue_wait_seconds",
            "Time between job acceptance and dispatch to the pool")
        self.job_execution_seconds = r.histogram(
            "job_execution_seconds",
            "Time between pool dispatch and job completion")
        self.queue_depth = r.gauge(
            "queue_depth", "Current job-queue occupancy")
        self.jobs_inflight = r.gauge(
            "jobs_inflight", "Computations currently queued or running")
        self.pipeline_stage_hits = r.counter(
            "pipeline_stage_hits",
            "Analysis-pipeline cache hits across completed jobs")
        self.pipeline_stage_misses = r.counter(
            "pipeline_stage_misses",
            "Analysis-pipeline cache misses across completed jobs")
        self.pipeline_delta_runs = r.counter(
            "pipeline_delta_runs", "Delta (warm-start) re-analyses")
        self.pipeline_delta_fallbacks = r.counter(
            "pipeline_delta_fallbacks",
            "Delta re-analyses that fell back to a cold run")
        self.pipeline_invalidations = r.counter(
            "pipeline_invalidations", "Pipeline cache evictions and clears")
        self.job_retries = r.counter(
            "job_retries",
            "Computations retried after a transient pool failure")
        self.pool_rebuilds = r.counter(
            "pool_rebuilds", "Broken process pools replaced")
        self.sweep_case_failures = r.counter(
            "sweep_case_failures",
            "Use cases failed permanently inside completed sweep jobs")
        self.sweep_case_retries = r.counter(
            "sweep_case_retries",
            "Per-use-case transient retries inside completed sweep jobs")
    def record_job_result(self, result) -> None:
        """Fold one completed job's failure/retry story into the registry.

        Sweep jobs complete even when individual use cases failed
        permanently (their document carries the records); this surfaces
        those partial-result facts on ``/metrics``.  Point jobs and
        pre-fault-tolerance documents are a no-op.
        """
        if not isinstance(result, dict):
            return
        metrics = result.get("metrics")
        if not isinstance(metrics, dict):
            return
        if metrics.get("failed"):
            self.sweep_case_failures.inc(metrics["failed"])
        if metrics.get("retries"):
            self.sweep_case_retries.inc(metrics["retries"])
        if metrics.get("pool_rebuilds"):
            self.pool_rebuilds.inc(metrics["pool_rebuilds"])

    def record_pipeline(self, counters: Optional[Dict[str, int]]) -> None:
        """Fold one run's analysis-pipeline counters into the registry.

        Accepts the ``pipeline`` dict of an
        :class:`~repro.core.optimizer.OptimizationReport` (or the summed
        sweep totals); ``None``/empty is a no-op so pre-pipeline records
        stay accepted.
        """
        if not counters:
            return
        hits = (
            counters.get("structural_hits", 0)
            + counters.get("dataflow_hits", 0)
            + counters.get("result_hits", 0)
        )
        misses = (
            counters.get("structural_misses", 0)
            + counters.get("dataflow_misses", 0)
        )
        if hits:
            self.pipeline_stage_hits.inc(hits)
        if misses:
            self.pipeline_stage_misses.inc(misses)
        if counters.get("delta_runs"):
            self.pipeline_delta_runs.inc(counters["delta_runs"])
        if counters.get("delta_fallbacks"):
            self.pipeline_delta_fallbacks.inc(counters["delta_fallbacks"])
        if counters.get("invalidations"):
            self.pipeline_invalidations.inc(counters["invalidations"])

    def record_job_span(self, span) -> None:
        """Derive latency histograms from a finished job span.

        The job span is the single timing source: its ``started`` event
        offset splits the total duration into queue wait (acceptance →
        pool dispatch) and execution (dispatch → completion).  Jobs
        that never dispatched (cached, cancelled while queued) observe
        queue wait only.
        """
        total = span.duration_s
        started = span.event_offset("started")
        if started is None:
            self.job_queue_wait_seconds.observe(total)
            return
        wait = max(0.0, min(started, total))
        self.job_queue_wait_seconds.observe(wait)
        self.job_execution_seconds.observe(total - wait)
        self.job_latency_seconds.observe(total)

    def retry_after_hint(self) -> int:
        """Suggested ``Retry-After`` seconds when the queue is full.

        One average computation latency (at least one second) — by the
        time that passes, a queue slot has likely drained.
        """
        return max(1, int(math.ceil(self.job_latency_seconds.mean(1.0))))

    def render(self) -> str:
        """The registry's text exposition (the ``/metrics`` body)."""
        return self.registry.render()

