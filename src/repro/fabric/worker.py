"""Shard execution inside a worker node, and coordinator registration.

A fabric worker is a plain ``repro serve`` node: shards arrive as
ordinary jobs (``kind: "shard"``) through the same bounded queue,
process pool, retry and telemetry machinery every other job kind uses.
:func:`execute_shard` is the pool entry point — it reuses the sweep
engine's :func:`~repro.experiments.sweep._run_serial` driver, so a
shard case gets exactly the per-case fault injection, transient-retry
and backoff semantics of a local ``run_sweep`` (bit-identical results
are a consequence, not a goal to re-verify per worker).

Results travel back as full :func:`~repro.experiments.cache.
result_to_dict` records keyed by the fleet-wide content hash, so the
coordinator can merge them into its store and rebuild
:class:`~repro.experiments.usecase.UseCaseResult` objects losslessly.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.experiments.cache import (
    SweepDiskCache,
    result_to_dict,
    usecase_key,
)
from repro.experiments.report import failure_to_json
from repro.experiments.scenario import options_from_params
from repro.experiments.sweep import _run_serial
from repro.experiments.usecase import UseCase
from repro.obs.trace import active_tracer


def execute_shard(
    params: Dict[str, Any],
    cache_dir: Optional[str],
) -> Dict[str, Any]:
    """Run one shard's explicit case list; returns the shard document.

    The document carries, per case, the fleet content-hash ``key`` and
    the full serialized result — plus structured failure records for
    cases that failed permanently after the worker's own retry budget.
    The coordinator maps both back to grid indices; the worker never
    needs to know where in the grid its cases came from.
    """
    cases = [UseCase.from_row(row) for row in params["cases"]]
    seed = params["seed"]
    options = options_from_params(params)
    disk = SweepDiskCache(cache_dir) if cache_dir else None
    keys = [usecase_key(usecase, seed, options) for usecase in cases]

    rows: List[Optional[Dict[str, Any]]] = [None] * len(cases)
    failures: List[Dict[str, Any]] = []
    counters = {"computed": 0, "disk_hits": 0, "retries": 0}

    # The ambient tracer is the pool-side one execute_job activated
    # when the dispatch carried a sampled traceparent; otherwise every
    # span call here is a no-op.
    span = active_tracer().start_span(
        "shard.execute", attributes={"cases": len(cases)}
    )

    pending: List[int] = []
    for idx, key in enumerate(keys):
        hit = disk.get(key) if disk is not None else None
        if hit is not None:
            rows[idx] = _case_row(key, hit, 0.0, 0, "disk")
            counters["disk_hits"] += 1
        else:
            pending.append(idx)

    class _RetryTally:
        # _run_serial only needs a ``retries`` attribute of its
        # metrics hook; a full SweepMetrics would drag in per-case
        # recording this document doesn't carry.  The property setter
        # observes the driver's ``metrics.retries += 1`` so transient
        # faults surface as span events without touching the driver.
        _retries = 0

        @property
        def retries(self):
            return self._retries

        @retries.setter
        def retries(self, value):
            if value > self._retries:
                span.add_event("retry", total=value)
            self._retries = value

    tally = _RetryTally()

    def deliver(idx, result, elapsed, pid):
        if disk is not None:
            disk.put(keys[idx], result)
        rows[idx] = _case_row(keys[idx], result, elapsed, pid, "computed")
        counters["computed"] += 1

    def fail(record):
        failures.append(failure_to_json(record))
        span.add_event(
            "case_failed",
            program=record.usecase.program,
            error=record.error_type,
        )

    with span:
        if pending:
            _run_serial(
                cases,
                pending,
                seed,
                options,
                deliver,
                fail,
                metrics=tally,
            )
        counters["retries"] = tally.retries
        span.set_attributes({
            "computed": counters["computed"],
            "disk_hits": counters["disk_hits"],
            "retries": counters["retries"],
        })
        if failures:
            span.set_status("error", f"{len(failures)} case(s) failed")

    return {
        "shard": {"cases": len(cases), **counters},
        "cases": [row for row in rows if row is not None],
        "failures": failures,
    }


def _case_row(
    key: str, result, elapsed: float, pid: int, source: str
) -> Dict[str, Any]:
    return {
        "key": key,
        "case": result.usecase.row(),
        "result": result_to_dict(result),
        "wall_s": elapsed,
        "pid": pid,
        "source": source,
    }


def register_with_coordinator(
    coordinator_url: str,
    worker_url: str,
    capacity: int = 1,
    max_retries: int = 10,
    sleep=time.sleep,
) -> Dict[str, Any]:
    """Self-register a worker node with a coordinator (blocking).

    Retries with the client's jittered backoff — a fleet booting
    together must not hammer a coordinator that is still binding its
    socket.  Returns the coordinator's worker record.
    """
    from repro.fabric.transport import split_base_url
    from repro.service.client import ServiceClient

    host, port = split_base_url(coordinator_url)
    client = ServiceClient(host, port, max_retries=max_retries, sleep=sleep)
    return client.register_worker(worker_url, capacity=capacity)
