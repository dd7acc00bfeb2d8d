"""Sweep driver over (program × configuration × technology) grids.

The paper's full grid is 37 programs × 36 configurations × 2 nodes =
2664 use cases.  A pure-Python reproduction cannot afford that per
benchmark run, so the sweep is specified explicitly and two standard
grids are provided:

* :func:`default_grid` — the documented representative subset used by
  the benchmark harness: every program appears, capacities span the
  full 256 B – 8 KiB range, one (associativity, block size) pair per
  capacity, both technologies;
* :func:`full_grid` — the paper's complete 2664-case grid, for offline
  runs (see EXPERIMENTS.md).

Use cases are independent, so :func:`run_sweep` fans them out over a
``concurrent.futures.ProcessPoolExecutor`` (``workers=``), assembling
results in deterministic grid order regardless of completion order.
One driver runs every sweep: with ``workers=1``, or when the platform
cannot start or rebuild a process pool, the same loop runs each case in
this process instead of submitting it.  Three cache layers keep
repeated work cheap:

* per-spec, in-process (``_SWEEP_CACHE``) — the per-figure benchmarks
  of one pytest session share one sweep; callers always receive a
  fresh list so mutating a result list cannot poison later readers;
* per-use-case, on disk (:mod:`repro.experiments.cache`) — interrupted
  sweeps resume, and fresh processes (each figure benchmark, each CLI
  run) reuse earlier results;
* optional :class:`~repro.experiments.metrics.SweepMetrics` collection
  reports where every result came from and what it cost.

Execution is fault-tolerant: one failing use case becomes a structured
:class:`FailureRecord` instead of killing the sweep, transient faults
(``BrokenProcessPool``, ``OSError``) are retried with exponential
backoff, and a broken pool is rebuilt — requeueing only the cases that
were in flight when it died — rather than degrading the rest of the
grid to serial.  At most :data:`INFLIGHT_PER_WORKER` cases per worker
are in the pool at once, which bounds the attempts one worker crash
costs.  The ``max_failures`` policy decides whether a partially failed
sweep raises :class:`~repro.errors.SweepFailure` (the default,
protecting callers that need the full grid) or returns the partial
results.  Failure scenarios are testable deterministically via
:mod:`repro.experiments.faults` (``REPRO_FAULT_PLAN``).
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.bench.registry import program_names
from repro.cache.config import CAPACITIES, TABLE2, config_id
from repro.errors import ExperimentError, SweepFailure
from repro.experiments.scenario import check_spec, options_from_params
from repro.experiments.usecase import (
    UseCase,
    UseCaseResult,
    pipeline_for_usecase,
    run_usecase,
)
from repro.obs.trace import current_span

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Attempts per use case before a transient fault becomes permanent.
DEFAULT_MAX_ATTEMPTS = 3

#: First retry delay; doubles per attempt (0.25 s, 0.5 s, 1 s, ...).
DEFAULT_BACKOFF_BASE_S = 0.25

#: Cases a pool worker holds at once: the one it runs and the one it
#: starts next.  Fewer leaves a worker idle between cases; more charges
#: more cases for one crash, as a broken pool fails every future it
#: holds and each of those cases spends an attempt.
INFLIGHT_PER_WORKER = 2


def retry_delay(attempt: int) -> float:
    """Backoff before retrying after failed attempt ``attempt`` (1-based).

    The one backoff formula of the sweep and the service's job retries.
    There is no jitter: each scheduler is one coordinator, so no herd
    of clients retries in unison.
    """
    return DEFAULT_BACKOFF_BASE_S * 2 ** (attempt - 1)


#: Exceptions a use case may raise that are worth retrying — the
#: machine hiccuped, not the computation (which is deterministic).
#: ``TimeoutError`` is an ``OSError`` subclass.
TRANSIENT_ERRORS: Tuple[type, ...] = (OSError,)

#: Errors meaning "the pool itself broke", not "a use case failed".
POOL_FAILURES: Tuple[type, ...] = (
    BrokenProcessPool,
    OSError,
    NotImplementedError,
    ImportError,
    pickle.PicklingError,
)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of use cases.

    :func:`~repro.experiments.scenario.spec_from_params` builds one
    from request or CLI params; how each axis enters the cache keys is
    set by the axis table there.

    Attributes:
        programs: Benchmark names.
        config_ids: Table 2 ids.
        techs: Technology names.
        seed: Executor seed for the ACET simulations.
        max_evaluations: Per-use-case optimization budget (see
            :class:`repro.core.OptimizerOptions.max_evaluations`);
            ``None`` = unlimited.
        baseline: Analysis fidelity: ``"classic"`` (must/may, the
            baseline of the paper's era — reproduces the paper's
            improvement magnitudes) or ``"persistence"`` (adds the
            first-miss domain; the tighter baseline leaves less for
            prefetching to win — see EXPERIMENTS.md).
        l2_specs: Memory-hierarchy axis, swept like any other grid
            dimension.  Each entry is an ``assoc:block:capacity:latency``
            L2 spec or ``None`` (the paper's single-level system); the
            default ``(None,)`` keeps the classic three-axis grid.
        refine: Model-check NOT_CLASSIFIED references via bounded
            concrete-state exploration (see
            :mod:`repro.analysis.refine`).
        kernel: Init-only and stored nowhere, so no key sees it: the
            analysis pipeline is dense only, and its python oracle is
            ``analyze_wcet``.  ``None`` and ``"vectorized"`` are accepted
            because the benchmark's workloads still pass the latter; the
            parameter goes with the next change to the benchmark
            (ROADMAP item 6).
    """

    programs: Tuple[str, ...]
    config_ids: Tuple[str, ...]
    techs: Tuple[str, ...]
    seed: int = 1
    max_evaluations: Optional[int] = None
    baseline: str = "classic"
    l2_specs: Tuple[Optional[str], ...] = (None,)
    refine: bool = False
    kernel: InitVar[Optional[str]] = None

    def __post_init__(self, kernel: Optional[str]) -> None:
        if kernel not in (None, "vectorized"):
            raise ExperimentError(
                f"kernel {kernel!r}: the analysis pipeline is dense only; "
                "its python oracle is analyze_wcet"
            )
        check_spec(self)

    def optimizer_options(self):
        """The options every use case of this sweep runs with."""
        return options_from_params({
            "budget": self.max_evaluations,
            "baseline": self.baseline,
            "refine": self.refine,
        })

    def usecases(self) -> List[UseCase]:
        """Expand the grid in (program, config, tech, l2) order."""
        return [
            UseCase(p, k, t, l2)
            for p in self.programs
            for k in self.config_ids
            for t in self.techs
            for l2 in self.l2_specs
        ]

    @property
    def size(self) -> int:
        """Number of use cases in the grid."""
        return (
            len(self.programs)
            * len(self.config_ids)
            * len(self.techs)
            * len(self.l2_specs)
        )


def default_grid(
    programs: Optional[Sequence[str]] = None,
    techs: Sequence[str] = ("45nm", "32nm"),
    seed: int = 1,
    max_evaluations: Optional[int] = 120,
) -> SweepSpec:
    """The representative subset the benchmark harness runs.

    One direct-mapped 16 B-block configuration per capacity (k1, k7,
    k13, k19, k25, k31) — the 6-point capacity axis of Figures 3-5 —
    across all programs and both technologies.
    """
    config_ids = []
    for capacity in CAPACITIES:
        for kid, cfg in TABLE2.items():
            if (
                cfg.capacity == capacity
                and cfg.associativity == 1
                and cfg.block_size == 16
            ):
                config_ids.append(kid)
                break
    return SweepSpec(
        programs=tuple(programs if programs is not None else program_names()),
        config_ids=tuple(config_ids),
        techs=tuple(techs),
        seed=seed,
        max_evaluations=max_evaluations,
    )


def full_grid(seed: int = 1, max_evaluations: Optional[int] = 120) -> SweepSpec:
    """The paper's complete 37 × 36 × 2 grid (2664 use cases)."""
    return SweepSpec(
        programs=tuple(program_names()),
        config_ids=tuple(TABLE2.keys()),
        techs=("45nm", "32nm"),
        seed=seed,
        max_evaluations=max_evaluations,
    )


#: Process-wide cache: spec -> results (sweeps are deterministic).
#: Holds immutable tuples; :func:`run_sweep` hands out fresh lists so a
#: caller mutating its copy cannot poison later readers.
_SWEEP_CACHE: Dict[SweepSpec, Tuple[UseCaseResult, ...]] = {}


def resolve_workers(workers: Optional[int], pending: int) -> int:
    """The effective worker count for ``pending`` runnable use cases.

    ``None`` means auto: the :data:`WORKERS_ENV` environment variable if
    set, else ``os.cpu_count()``.  The result is clamped to the number
    of runnable cases (never below 1) — a sweep served entirely from
    cache should not spin up a pool.

    Raises:
        ConfigError: If ``workers`` (or the environment override) is not
            a positive integer — diagnosed here, with the knob named,
            rather than surfacing as a raw ``ValueError`` from deep
            inside :func:`run_sweep`.
    """
    from repro.errors import ConfigError

    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError(
                    f"{WORKERS_ENV} must be a positive integer, got {env!r}"
                ) from None
            if workers < 1:
                raise ConfigError(
                    f"{WORKERS_ENV} must be a positive integer, got {env!r}"
                )
        else:
            workers = os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(
            f"workers must be a positive integer, got {workers!r}"
        )
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, pending))


@dataclass(frozen=True)
class FailureRecord:
    """One use case that failed permanently within a sweep.

    Attributes:
        usecase: The evaluation point that failed.
        index: Its position in grid order.
        error_type: Exception class name of the final failure.
        message: Its message.
        attempts: How many attempts were made (> 1 means transient
            faults were retried before giving up).
        worker_pid: Pid of the worker that reported the final failure
            (0 when the worker died before it could report, e.g. a
            broken pool).
        transient: Whether the final failure was of the retriable
            family — ``True`` means the retry budget was exhausted,
            ``False`` means the case failed deterministically.
    """

    usecase: UseCase
    index: int
    error_type: str
    message: str
    attempts: int
    worker_pid: int
    transient: bool


def make_process_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` processes.

    The one pool factory of the sweep and the service.  It forks where
    the platform can, the cheapest start method: workers inherit the
    loaded benchmark registry instead of re-importing it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _evaluate_usecase(payload) -> Tuple:
    """Worker entry point: run one use case, timed and failure-encoded.

    Module-level so it pickles under every multiprocessing start
    method.  ``payload`` is ``(usecase, seed, options, attempt)``.
    Returns ``("ok", result, wall_seconds, worker_pid)`` on success and
    ``("err", error_type, message, worker_pid, transient)`` when the
    use case raised — failures are encoded rather than propagated so
    the parent can tell a failed *case* (isolated, maybe retried) from
    a failed *pool* (rebuilt), and so the worker pid survives the trip
    even for exceptions.
    """
    from repro.experiments import faults

    usecase, seed, options, attempt = payload
    start = time.perf_counter()
    try:
        faults.inject_before(usecase, attempt)
        # One analysis pipeline per use case: all phases of the use case
        # share cached artifacts, while use cases stay independent (and
        # the pipeline never crosses a process boundary).
        pipeline = pipeline_for_usecase(usecase, options)
        result = run_usecase(
            usecase, seed=seed, options=options, pipeline=pipeline
        )
        result = faults.inject_after(usecase, attempt, result)
    except Exception as exc:
        return (
            "err",
            type(exc).__name__,
            str(exc),
            os.getpid(),
            isinstance(exc, TRANSIENT_ERRORS),
        )
    return ("ok", result, time.perf_counter() - start, os.getpid())


class _FanOut:
    """The sweep driver: every case isolated, retried and accounted for.

    Each case has its own attempt count, and every failed attempt goes
    through :meth:`_handle_error`, the one retry-or-fail decision.  With
    a pool, at most :data:`INFLIGHT_PER_WORKER` × ``workers`` cases are
    in flight, and a broken pool is rebuilt once per break with only
    the cases lost in flight requeued.  Without one (``workers == 1``,
    or no pool could be started or rebuilt) each eligible case runs in
    this process, its attempts counting on from the pool's, so a fault
    aimed at attempt 1 (a worker crash) never fires here.  While one
    case backs off the next eligible case runs.  Per-case failures
    never escape — they go through ``deliver``/``fail``.
    """

    def __init__(
        self,
        cases: Sequence[UseCase],
        seed: int,
        options,
        workers: int,
        deliver: Callable[[int, UseCaseResult, float, int], None],
        fail: Callable[[FailureRecord], None],
        metrics=None,
    ):
        self.cases = cases
        self.seed = seed
        self.options = options
        self.workers = workers
        self.limit = INFLIGHT_PER_WORKER * workers
        self.deliver = deliver
        self.fail = fail
        self.metrics = metrics
        self.queue: "deque[int]" = deque()
        self.attempts: Dict[int, int] = {}
        self.eligible_at: Dict[int, float] = {}
        self.inflight: Dict[object, int] = {}
        self.pool = None

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _rebuild_pool(self) -> None:
        self.pool = make_process_pool(self.workers)
        if self.metrics is not None:
            self.metrics.pool_rebuilds += 1

    def _recover(self, rebuild: bool = True) -> None:
        """Settle the cases in flight, then replace the pool.

        Every future of a broken pool finishes at once: lost cases
        raise ``BrokenProcessPool`` and are requeued, cases that
        completed first are delivered, never re-run.  A pool that
        could not start a worker (``rebuild=False``) first finishes the
        cases it holds, and the rest run in this process.
        """
        for future in list(self.inflight):
            self._collect(future)
        self.pool.shutdown(wait=False)
        self.pool = None
        if rebuild:
            try:
                self._rebuild_pool()
            except POOL_FAILURES:
                pass  # the rest runs in this process

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _handle_error(
        self, idx: int, error_type: str, message: str, pid: int,
        transient: bool,
    ) -> None:
        attempt = self.attempts[idx]
        if transient and attempt < DEFAULT_MAX_ATTEMPTS:
            if self.metrics is not None:
                self.metrics.retries += 1
            span = current_span()
            if span is not None:
                span.add_event("retry", attempt=attempt, error=error_type)
            self.eligible_at[idx] = time.monotonic() + retry_delay(attempt)
            self.queue.append(idx)
            return
        self.fail(FailureRecord(
            usecase=self.cases[idx],
            index=idx,
            error_type=error_type,
            message=message,
            attempts=attempt,
            worker_pid=pid,
            transient=transient,
        ))

    def _dispatch_outcome(self, idx: int, outcome: Tuple) -> None:
        if outcome[0] == "ok":
            self.deliver(idx, outcome[1], outcome[2], outcome[3])
        else:
            _, error_type, message, pid, transient = outcome
            self._handle_error(idx, error_type, message, pid, transient)

    def _collect(self, future) -> bool:
        """Dispatch a future's outcome; ``True`` if its pool broke."""
        idx = self.inflight.pop(future)
        try:
            outcome = future.result()
        except BrokenProcessPool as exc:
            self._handle_error(
                idx, type(exc).__name__,
                str(exc) or "worker process died", 0, True,
            )
            return True
        except TRANSIENT_ERRORS as exc:
            self._handle_error(idx, type(exc).__name__, str(exc), 0, True)
        except Exception as exc:
            self._handle_error(idx, type(exc).__name__, str(exc), 0, False)
        else:
            self._dispatch_outcome(idx, outcome)
        return False

    # ------------------------------------------------------------------
    # the drive loop
    # ------------------------------------------------------------------
    def run(self, pending: Sequence[int]) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait

        self.queue = deque(pending)
        self.attempts = dict.fromkeys(pending, 0)
        if self.workers > 1:
            try:
                self.pool = make_process_pool(self.workers)
            except POOL_FAILURES:
                pass  # every case runs in this process
        try:
            while self.queue or self.inflight:
                self._submit_eligible()
                timeout = self._wait_timeout(time.monotonic())
                if not self.inflight:
                    # Everything queued is backing off; sleep it out.
                    if timeout:
                        time.sleep(timeout)
                    continue
                done, _ = wait(
                    set(self.inflight),
                    timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    broken |= self._collect(future)
                if broken:
                    self._recover()
            if self.metrics is not None and self.pool is None:
                self.metrics.workers = 1
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False)

    def _submit_eligible(self) -> None:
        """Start queued cases whose backoff is over, up to the bound.

        Without a pool a case runs here, and its outcome is dispatched
        before the next case starts.
        """
        waiting: "deque[int]" = deque()
        while self.queue and len(self.inflight) < self.limit:
            idx = self.queue.popleft()
            if self.eligible_at.get(idx, 0.0) > time.monotonic():
                waiting.append(idx)
                continue
            self.attempts[idx] += 1
            payload = (self.cases[idx], self.seed, self.options,
                       self.attempts[idx])
            if self.pool is None:
                self._dispatch_outcome(idx, _evaluate_usecase(payload))
                continue
            try:
                # A pool starts its worker processes here, not when built.
                future = self.pool.submit(_evaluate_usecase, payload)
            except BrokenProcessPool as exc:
                # The pool died before a future could report it.
                self._handle_error(idx, type(exc).__name__, str(exc), 0,
                                   True)
                self._recover()
                continue
            except POOL_FAILURES:
                # No worker could start: this attempt never ran.
                self.attempts[idx] -= 1
                self.queue.appendleft(idx)
                self._recover(rebuild=False)
                continue
            self.inflight[future] = idx
        waiting.extend(self.queue)
        self.queue = waiting

    def _wait_timeout(self, now: float) -> Optional[float]:
        """Until the next queued case is eligible, if a slot is free."""
        if not self.queue or len(self.inflight) >= self.limit:
            return None
        soonest = min(self.eligible_at.get(i, now) for i in self.queue)
        return max(0.0, soonest - now)


def run_sweep(
    spec: SweepSpec,
    progress: Optional[Callable[[UseCase, UseCaseResult], None]] = None,
    use_cache: bool = True,
    workers: Optional[int] = None,
    cache_dir: Union[None, str, Path] = None,
    metrics=None,
    max_failures: Optional[int] = 0,
) -> List[UseCaseResult]:
    """Run every use case of a spec.

    Args:
        spec: The grid.
        progress: Optional callback invoked per use case, always in
            grid order (parallel completions are re-sequenced).
        use_cache: Reuse results of an identical earlier sweep in this
            process (sweeps are deterministic).
        workers: Process count for the fan-out; ``None`` = auto
            (:data:`WORKERS_ENV`, else ``os.cpu_count()``), ``1`` =
            every case in this process, which is also where the
            remaining cases run when the platform cannot start or
            rebuild a process pool.
        cache_dir: Directory of the persistent per-use-case cache;
            ``None`` consults ``REPRO_SWEEP_CACHE_DIR`` (unset =
            disabled).  See :mod:`repro.experiments.cache`.
        metrics: Optional :class:`~repro.experiments.metrics.SweepMetrics`
            collector to fill.
        max_failures: Failure policy.  The grid always runs to
            completion (successes are disk-cached either way); this
            only decides what happens *afterwards* when cases failed
            permanently: ``0`` (the default) raises
            :class:`~repro.errors.SweepFailure` on any failure, ``N``
            tolerates up to N, ``None`` never raises — callers then
            read ``metrics.failures`` for the partial-result story.

    Returns:
        A fresh list of the *successful* results in grid order (safe
        to mutate).  Without failures — the overwhelmingly common case
        — that is the full grid.

    Raises:
        ConfigError: When ``REPRO_FAULT_PLAN`` is malformed; raised
            before any case runs.
        SweepFailure: When more than ``max_failures`` cases failed
            permanently.  The exception carries the failure records
            and the partial results.
    """
    from repro.experiments import faults
    from repro.experiments.metrics import (
        SOURCE_COMPUTED,
        SOURCE_DISK,
        SOURCE_MEMORY,
    )

    faults.env_plan()  # a malformed plan fails here, before any case
    cases = spec.usecases()
    if use_cache and spec in _SWEEP_CACHE:
        cached = _SWEEP_CACHE[spec]
        if metrics is not None:
            for usecase, result in zip(cases, cached):
                metrics.record(usecase, result, SOURCE_MEMORY)
        return list(cached)

    options = spec.optimizer_options()
    from repro.experiments.cache import (
        SweepDiskCache,
        resolve_cache_dir,
        resolve_cache_max_bytes,
        usecase_key,
    )

    disk_root = resolve_cache_dir(cache_dir)
    cap = resolve_cache_max_bytes()
    # The cache enforces its cap opportunistically during the sweep,
    # not just at the end — a long grid must not blow past the budget
    # for hours before the final prune.
    disk = (
        SweepDiskCache(disk_root, max_bytes=cap)
        if disk_root is not None
        else None
    )

    n = len(cases)
    results: List[Optional[UseCaseResult]] = [None] * n
    #: A case is settled once it has a result *or* a failure record —
    #: the grid-order re-sequencer must not stall behind failed cases.
    settled: List[bool] = [False] * n
    sources: List[str] = [SOURCE_COMPUTED] * n
    timings: List[float] = [0.0] * n
    pids: List[int] = [0] * n
    keys: List[Optional[str]] = [None] * n
    failures: List[FailureRecord] = []
    pending: List[int] = []
    for idx, usecase in enumerate(cases):
        if disk is not None:
            keys[idx] = usecase_key(usecase, spec.seed, options)
            hit = disk.get(keys[idx])
            if hit is not None:
                results[idx] = hit
                settled[idx] = True
                sources[idx] = SOURCE_DISK
                continue
        pending.append(idx)

    nworkers = resolve_workers(workers, len(pending))
    if metrics is not None:
        metrics.workers = nworkers

    emitted = 0

    def deliver(idx: int, result: UseCaseResult, elapsed: float,
                pid: int) -> None:
        results[idx] = result
        settled[idx] = True
        timings[idx] = elapsed
        pids[idx] = pid
        if disk is not None:
            disk.put(keys[idx], result)
        emit_ready()

    def fail(record: FailureRecord) -> None:
        settled[record.index] = True
        failures.append(record)
        if metrics is not None:
            metrics.record_failure(record)
        emit_ready()

    def emit_ready() -> None:
        # Re-sequence: progress/metrics fire in grid order as soon as
        # the prefix up to the first still-running case is settled.
        nonlocal emitted
        while emitted < n and settled[emitted]:
            idx = emitted
            if results[idx] is not None:
                if metrics is not None:
                    metrics.record(
                        cases[idx],
                        results[idx],
                        sources[idx],
                        wall_time_s=timings[idx],
                        worker_pid=pids[idx],
                    )
                if progress is not None:
                    progress(cases[idx], results[idx])
            emitted += 1

    _FanOut(
        cases,
        spec.seed,
        options,
        nworkers,
        deliver,
        fail,
        metrics=metrics,
    ).run(pending)
    emit_ready()

    if disk is not None and cap is not None:
        disk.prune(cap)

    final: List[UseCaseResult] = [r for r in results if r is not None]
    if failures and max_failures is not None and len(failures) > max_failures:
        raise SweepFailure(
            f"{len(failures)} of {n} use cases failed permanently "
            f"(first: {failures[0].usecase.program}/"
            f"{failures[0].usecase.config_id}/{failures[0].usecase.tech}: "
            f"{failures[0].error_type}: {failures[0].message})",
            failures=failures,
            results=final,
        )
    if use_cache and not failures:
        # Never memoize a partial grid: a rerun must recompute the
        # failed cases (the successes come back from disk).
        _SWEEP_CACHE[spec] = tuple(final)
    return final


def group_by_capacity(
    results: Sequence[UseCaseResult],
) -> Dict[int, List[UseCaseResult]]:
    """Bucket results by cache capacity (the x-axis of Figs 3-5)."""
    buckets: Dict[int, List[UseCaseResult]] = {}
    for result in results:
        capacity = result.usecase.cache_config().capacity
        buckets.setdefault(capacity, []).append(result)
    return dict(sorted(buckets.items()))


def average(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    seq = list(values)
    if not seq:
        return 0.0
    return sum(seq) / len(seq)
