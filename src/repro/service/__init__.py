"""Async analysis service: ``repro serve`` + a blocking client.

A long-lived, stdlib-only serving layer over the experiment engine:

* :mod:`repro.service.protocol` — job request/response schemas; every
  validation failure maps to HTTP 400 with a named field;
* :mod:`repro.service.telemetry` — ``GET /metrics`` (Prometheus text
  format): counters, gauges and three latency histograms, folded at
  scrape time from the job table and the job spans, with no registry
  of its own;
* :mod:`repro.service.jobs` — the bounded job queue with backpressure
  (HTTP 429 + ``Retry-After``), in-flight request coalescing keyed by
  the disk cache's content hash, per-job timeout and cancellation;
* :mod:`repro.service.executor` — the shared ``ProcessPoolExecutor``
  bridged to :mod:`repro.experiments.cache` for persistence;
* :mod:`repro.service.app` — asyncio HTTP framing/routing
  (``POST /v1/jobs``, ``GET /v1/jobs/<id>``, ``GET /v1/results/<id>``,
  ``DELETE /v1/jobs/<id>``, ``GET /healthz``, ``GET /metrics``);
* :mod:`repro.service.client` — :class:`ServiceClient`, a blocking
  client with retry + exponential backoff on 429/503.
"""

from repro.service.app import BackgroundServer, ServiceApp, build_service
from repro.service.client import ServiceClient
from repro.service.executor import AnalysisExecutor
from repro.service.jobs import (
    JOB_STATES,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    Job,
    JobManager,
)
from repro.service.protocol import JobRequest, parse_job

__all__ = [
    "AnalysisExecutor",
    "BackgroundServer",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobRequest",
    "STATE_CANCELLED",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "ServiceApp",
    "ServiceClient",
    "build_service",
    "parse_job",
]
