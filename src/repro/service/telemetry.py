"""``GET /metrics`` as a fold over state the service already keeps.

Nothing is counted as it happens.  At scrape time :func:`render` reads
the job table (state, ``coalesced``, ``cached``), the computations
dispatched to the pool (job span, attempt count, result document), the
live queue facts ``/healthz`` serves, the executor's ``pool_rebuilds``
and three plain ints that have no record (rejected submissions, HTTP
requests, HTTP errors).  The job span is the one timing source: its
``started`` event splits latency into queue wait and execution.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.service.jobs import STATE_CANCELLED, STATE_DONE, STATE_FAILED

#: Latency buckets (seconds): sub-millisecond cache hits up to
#: multi-minute sweep jobs.
BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0,
)

#: ``(name, type, help)`` of every exposed metric, in exposition order.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("jobs_submitted", "counter", "Jobs accepted via POST /v1/jobs"),
    ("jobs_completed", "counter", "Jobs that reached the DONE state"),
    ("jobs_failed", "counter", "Jobs that errored or timed out"),
    ("jobs_cancelled", "counter", "Jobs cancelled via DELETE /v1/jobs/<id>"),
    ("jobs_coalesced", "counter",
     "Jobs coalesced onto an in-flight computation"),
    ("jobs_rejected", "counter", "Submissions rejected with 429 (queue full)"),
    ("cache_hits", "counter", "Jobs served from the persistent disk cache"),
    ("computations", "counter", "Payloads dispatched to the worker pool"),
    ("http_requests", "counter", "HTTP requests served"),
    ("http_errors", "counter", "HTTP responses with status >= 400"),
    ("job_latency_seconds", "histogram",
     "End-to-end job latency (queue wait + execution)"),
    ("job_queue_wait_seconds", "histogram",
     "Time between job acceptance and dispatch to the pool"),
    ("job_execution_seconds", "histogram",
     "Time between pool dispatch and job completion"),
    ("queue_depth", "gauge", "Current job-queue occupancy"),
    ("jobs_inflight", "gauge", "Computations currently queued or running"),
    ("pipeline_stage_hits", "counter",
     "Analysis-pipeline stage products reused from a handed-over "
     "analysis across completed jobs"),
    ("pipeline_stage_misses", "counter",
     "Analysis-pipeline stage computations across completed jobs"),
    ("pipeline_delta_runs", "counter", "Delta (warm-start) re-analyses"),
    ("pipeline_delta_fallbacks", "counter",
     "Delta re-analyses that fell back to a cold run"),
    ("pipeline_invalidations", "counter",
     "Pipeline memo clears and kernel block-universe rebuilds"),
    ("job_retries", "counter",
     "Computations retried after a transient pool failure"),
    ("pool_rebuilds", "counter", "Broken process pools replaced"),
    ("sweep_case_failures", "counter",
     "Use cases failed permanently inside completed sweep jobs"),
    ("sweep_case_retries", "counter",
     "Per-use-case transient retries inside completed sweep jobs"),
)

#: Each ``pipeline_*`` metric sums these keys of a result's counters.
_PIPELINE_SUMS = (
    ("pipeline_stage_hits", ("structural_hits", "dataflow_hits")),
    ("pipeline_stage_misses", ("structural_misses", "dataflow_misses")),
    ("pipeline_delta_runs", ("delta_runs",)),
    ("pipeline_delta_fallbacks", ("delta_fallbacks",)),
    ("pipeline_invalidations", ("invalidations",)),
)


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without a dot)."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _pipeline_counters(result: Any) -> Optional[Dict[str, int]]:
    """Analysis-pipeline counters embedded in a result document, if any.

    Tolerant of every result shape the executor produces: a point
    ``optimize`` document carries them at the top level, a use-case
    document under ``report``, a sweep document under ``metrics`` —
    and of documents predating the pipeline (returns ``None``).
    """
    if not isinstance(result, dict):
        return None
    for holder in (result, result.get("report"), result.get("metrics")):
        if isinstance(holder, dict):
            counters = holder.get("pipeline")
            if isinstance(counters, dict) and counters:
                return counters
    return None


def _latencies(computations: Iterable[Any]) -> List[Tuple[float, ...]]:
    """``(queue wait, execution, total)`` seconds of every computation
    that finished done or failed; cancelled ones stay out."""
    out = []
    for comp in computations:
        if comp.outcome is None:
            continue
        total = comp.span.duration_s
        wait = max(0.0, min(comp.span.event_offset("started", 0.0), total))
        out.append((wait, total - wait, total))
    return out


def retry_after_hint(computations: Iterable[Any]) -> int:
    """Suggested ``Retry-After`` seconds when the queue is full: one
    mean computation latency (at least 1 s), by when a slot has likely
    drained."""
    totals = [total for _wait, _exec, total in _latencies(computations)]
    return max(1, math.ceil(sum(totals) / len(totals) if totals else 1.0))


def _document_counters(results: Iterable[Any]) -> Dict[str, int]:
    """Pipeline and sweep counters summed over result documents."""
    sums = dict.fromkeys([name for name, _keys in _PIPELINE_SUMS]
                         + ["sweep_case_failures", "sweep_case_retries"], 0)
    for result in results:
        counters = _pipeline_counters(result) or {}
        for name, keys in _PIPELINE_SUMS:
            sums[name] += sum(counters.get(key, 0) for key in keys)
        metrics = result.get("metrics") if isinstance(result, dict) else None
        if isinstance(metrics, dict):
            sums["sweep_case_failures"] += metrics.get("failed") or 0
            sums["sweep_case_retries"] += metrics.get("retries") or 0
    return sums


def _histogram(name: str, values: Sequence[float]) -> List[str]:
    """Exposition lines of one histogram: cumulative buckets, sum, count."""
    lines = [
        f'{name}_bucket{{le="{_format_value(bound)}"}} '
        f"{sum(1 for v in values if v <= bound)}"
        for bound in BUCKETS
    ]
    lines.append(f'{name}_bucket{{le="+Inf"}} {len(values)}')
    lines.append(f"{name}_sum {_format_value(sum(values))}")
    lines.append(f"{name}_count {len(values)}")
    return lines


def render(manager, http_requests: int, http_errors: int) -> str:
    """The ``/metrics`` body: every metric of :data:`METRICS`, folded
    from ``manager`` (a :class:`~repro.service.jobs.JobManager`) and the
    HTTP layer's two request counts."""
    jobs = list(manager.jobs.values())
    comps = list(manager.computations)
    states = Counter(job.state for job in jobs)
    stats = manager.stats()
    latencies = _latencies(comps)
    values: Dict[str, Any] = {
        "jobs_submitted": len(jobs),
        "jobs_completed": states[STATE_DONE],
        "jobs_failed": states[STATE_FAILED],
        "jobs_cancelled": states[STATE_CANCELLED],
        "jobs_coalesced": sum(job.coalesced for job in jobs),
        "jobs_rejected": manager.rejected,
        "cache_hits": sum(job.cached for job in jobs),
        "computations": len(comps),
        "http_requests": http_requests,
        "http_errors": http_errors,
        "job_latency_seconds": [total for _w, _e, total in latencies],
        "job_queue_wait_seconds": [wait for wait, _e, _t in latencies],
        "job_execution_seconds": [exe for _w, exe, _t in latencies],
        "queue_depth": stats["queue_depth"],
        "jobs_inflight": stats["inflight"],
        "job_retries": sum(comp.attempts - 1 for comp in comps),
        "pool_rebuilds": getattr(manager.executor, "pool_rebuilds", 0),
    }
    values.update(_document_counters(
        comp.result for comp in comps if comp.outcome == STATE_DONE
    ))
    lines: List[str] = []
    for name, kind, help_text in METRICS:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            lines.extend(_histogram(name, values[name]))
        else:
            lines.append(f"{name} {_format_value(values[name])}")
    return "\n".join(lines) + "\n"
