"""The service's compute backend: process pool + disk-cache bridge.

One :class:`AnalysisExecutor` is shared by every job the server
accepts.  It resolves a request three ways, cheapest first:

1. :meth:`probe_cache` — for the point kinds (``optimize``/
   ``usecase``) the persistent :class:`~repro.experiments.cache.
   SweepDiskCache` record is read *in the server process* before any
   dispatch, so a warm request never costs a queue slot or a pool
   round-trip (this is the service's ``cache_hits`` metric);
2. the ``ProcessPoolExecutor`` — :func:`execute_job` runs in a worker
   process, re-checks the disk cache (another server instance may have
   raced us to the same record), computes, and persists the result
   under exactly the key ``repro sweep`` uses, so service traffic and
   CLI sweeps warm one another's cache;
3. a ``ThreadPoolExecutor`` fallback when the platform cannot start a
   process pool (sandboxes without fork/spawn) — same interface,
   reduced parallelism, service stays up.

``sweep`` jobs run serially *inside* one worker (``workers=1``): the
pool is the fan-out across jobs, and nesting pools inside pool workers
is not portable.  Their per-use-case records still go through the same
disk cache.

After every computation the cache is pruned to
``REPRO_SWEEP_CACHE_MAX_BYTES`` (when set), so a long-lived server
cannot grow the cache without bound.
"""

from __future__ import annotations

import concurrent.futures
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.experiments.cache import (
    SweepDiskCache,
    resolve_cache_dir,
    resolve_cache_max_bytes,
    usecase_key,
)
from repro.experiments.report import (
    optimize_to_json,
    sweep_to_json,
    usecase_to_json,
)
from repro.experiments.scenario import options_from_params, spec_from_params
from repro.experiments.sweep import POOL_FAILURES, resolve_workers
from repro.experiments.usecase import UseCase, UseCaseResult, run_usecase
from repro.obs.trace import (
    SpanCollector,
    Tracer,
    activate_tracer,
    current_context,
    format_traceparent,
    parse_traceparent,
)
from repro.service.protocol import JobRequest


def _point_job(params: Dict[str, Any]):
    """``(use case, options, disk-cache key)`` of an optimize/usecase
    job; the key is the one a ``repro sweep`` over it would write."""
    usecase = UseCase(params["program"], params["config"], params["tech"])
    options = options_from_params(params)
    return usecase, options, usecase_key(usecase, params["seed"], options)


def _point_response(kind: str, result: UseCaseResult) -> Dict[str, Any]:
    """The response document of a point job (shared by the cache-probe
    path and the worker path, so both emit identical payloads)."""
    if kind == "optimize":
        data = optimize_to_json(result.report)
        data["wcet_ratio"] = result.wcet_ratio
        return data
    return usecase_to_json(result)


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: compute one job's response document.

    Module-level so it pickles under every multiprocessing start
    method.  ``payload`` is ``{"kind", "params", "cache_dir"}`` with
    ``params`` in canonical (:meth:`JobRequest.params_dict`) form, plus
    an optional ``traceparent``: when that carries a sampled trace, a
    one-shot tracer collects the pool-side spans (``pool.execute`` down
    to the pipeline stages) and rides them back on the result document
    under the reserved ``__spans__`` key, which the job layer strips
    into the node's trace store before the result is served or cached.
    """
    kind = payload["kind"]
    params = payload["params"]
    cache_dir = payload.get("cache_dir")

    ctx = parse_traceparent(payload.get("traceparent"))
    if ctx is None or not ctx.sampled:
        return _execute(kind, params, cache_dir)

    collector = SpanCollector()
    tracer = Tracer(service="pool", sample=1.0, sink=collector.add)
    with activate_tracer(tracer):
        with tracer.start_span(
            "pool.execute",
            parent=ctx,
            attributes={"kind": kind, "pid": os.getpid()},
        ):
            result = _execute(kind, params, cache_dir)
    if isinstance(result, dict):
        result["__spans__"] = collector.drain()
    return result


def _execute(kind, params, cache_dir) -> Dict[str, Any]:
    if kind == "sweep":
        from repro.experiments.metrics import SweepMetrics
        from repro.experiments.sweep import run_sweep

        spec = spec_from_params(params)
        metrics = SweepMetrics()
        # Never raise on per-case failures: the job's response document
        # carries the failure records, so the client sees exactly which
        # cases failed next to the successes instead of an opaque 500.
        results = run_sweep(
            spec,
            use_cache=False,
            workers=1,
            cache_dir=cache_dir if cache_dir else "off",
            metrics=metrics,
            max_failures=None,
        )
        return sweep_to_json(
            results, metrics=metrics, failures=metrics.failures
        )

    usecase, options, key = _point_job(params)
    disk = SweepDiskCache(cache_dir) if cache_dir else None
    result = disk.get(key) if disk is not None else None
    if result is None:
        result = run_usecase(usecase, seed=params["seed"], options=options)
        if disk is not None:
            disk.put(key, result)
    return _point_response(kind, result)


class AnalysisExecutor:
    """Shared compute pool with a persistent-cache fast path.

    Args:
        workers: Pool size (``None`` = ``REPRO_SWEEP_WORKERS`` or the
            CPU count, validated by
            :func:`~repro.experiments.sweep.resolve_workers`).
        cache_dir: Persistent cache directory (``None`` consults
            ``REPRO_SWEEP_CACHE_DIR``; pass ``"off"`` to disable).
        max_cache_bytes: Prune threshold (``None`` consults
            ``REPRO_SWEEP_CACHE_MAX_BYTES``).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Union[None, str, Path] = None,
        max_cache_bytes: Optional[int] = None,
    ):
        pool_cap = workers if workers is not None else (os.cpu_count() or 1)
        self.workers = resolve_workers(workers, pending=pool_cap)
        root = resolve_cache_dir(cache_dir)
        self.disk = SweepDiskCache(root) if root is not None else None
        self.max_cache_bytes = (
            max_cache_bytes
            if max_cache_bytes is not None
            else resolve_cache_max_bytes()
        )
        self._pool: Optional[concurrent.futures.Executor] = None
        self._pool_is_processes = False
        self.pool_rebuilds = 0

    # ------------------------------------------------------------------
    # the three resolution paths
    # ------------------------------------------------------------------
    def probe_cache(self, request: JobRequest) -> Optional[Dict[str, Any]]:
        """The response document if the disk cache already holds it.

        Only the point kinds have whole-job records; sweep jobs reuse
        the cache per use case inside the worker instead.
        """
        if self.disk is None or request.kind == "sweep":
            return None
        _, _, key = _point_job(request.params_dict())
        result = self.disk.get(key)
        if result is None:
            return None
        return _point_response(request.kind, result)

    def submit(self, request: JobRequest) -> "concurrent.futures.Future":
        """Dispatch a request to the pool; returns the result future."""
        payload = {
            "kind": request.kind,
            "params": request.params_dict(),
            "cache_dir": str(self.disk.root) if self.disk is not None else None,
        }
        # Thread the ambient trace (the job span, activated by the job
        # layer around this call) into the pool process.  The context
        # rides the payload, never the request: fingerprints and cache
        # keys stay trace-agnostic.
        ctx = current_context()
        if ctx is not None and ctx.sampled:
            payload["traceparent"] = format_traceparent(ctx)
        pool = self._ensure_pool()
        try:
            future = pool.submit(execute_job, payload)
        except _POOL_FAILURES:
            pool = self._fall_back_to_threads()
            future = pool.submit(execute_job, payload)
        future.add_done_callback(self._after_compute)
        return future

    def _after_compute(self, future: "concurrent.futures.Future") -> None:
        if self.disk is not None and self.max_cache_bytes is not None:
            try:
                self.disk.prune(self.max_cache_bytes)
            except OSError:  # pruning is best-effort housekeeping
                pass

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> "concurrent.futures.Executor":
        if self._pool is None:
            try:
                self._pool = self._make_process_pool()
                self._pool_is_processes = True
            except _POOL_FAILURES:
                self._fall_back_to_threads()
        return self._pool

    def _make_process_pool(self) -> "concurrent.futures.Executor":
        import multiprocessing

        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )

    def recover(self) -> "concurrent.futures.Executor":
        """Replace a broken pool with a fresh *process* pool.

        Called by the job layer when a worker died mid-job
        (``BrokenProcessPool``): unlike :meth:`_fall_back_to_threads`,
        a pool break is not a platform limitation — the next pool of
        processes is perfectly healthy — so the service keeps its
        parallelism instead of permanently degrading to threads.
        Falls back to threads only when the rebuild itself fails.
        """
        old = self._pool
        self._pool = None
        if old is not None:
            old.shutdown(wait=False)
        try:
            self._pool = self._make_process_pool()
            self._pool_is_processes = True
        except _POOL_FAILURES:
            return self._fall_back_to_threads()
        self.pool_rebuilds += 1
        return self._pool

    def _fall_back_to_threads(self) -> "concurrent.futures.Executor":
        old = self._pool
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-service",
        )
        self._pool_is_processes = False
        if old is not None:
            old.shutdown(wait=False)
        return self._pool

    def shutdown(self) -> None:
        """Stop the pool without waiting for stragglers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def describe(self) -> Dict[str, Any]:
        """Backend facts for ``/healthz``."""
        data = {
            "workers": self.workers,
            "pool": (
                "none" if self._pool is None
                else "processes" if self._pool_is_processes
                else "threads"
            ),
            "cache_dir": str(self.disk.root) if self.disk is not None else None,
            "max_cache_bytes": self.max_cache_bytes,
            "pool_rebuilds": self.pool_rebuilds,
        }
        if self.disk is not None:
            data["cache"] = {
                "hits": self.disk.hits,
                "misses": self.disk.misses,
                "discarded": self.disk.discarded,
                "pruned": self.disk.pruned,
                "prune_races": self.disk.prune_races,
            }
        return data


#: A shut-down thread pool raises ``RuntimeError`` on submit; the
#: sweep's pool failures cover everything else.
_POOL_FAILURES = POOL_FAILURES + (RuntimeError,)
