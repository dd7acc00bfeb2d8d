"""Lightweight instrumentation of sweep runs.

A sweep over the paper's grid spends hours in the optimizer; without
numbers it is impossible to tell whether a slow run is recomputing
cached work, starving its workers, or stuck on one pathological use
case.  :class:`SweepMetrics` collects, per use case, where the result
came from (computed / disk cache / in-process cache), how long it took,
and how much optimizer work it cost — plus sweep-level cache counters
and the set of worker processes that actually ran, which is how the
tests prove the parallel path really fans out.

The collector is passed into :func:`repro.experiments.sweep.run_sweep`
by the caller (the ``repro sweep`` CLI creates one and prints
:meth:`SweepMetrics.summary`); it is plain data, cheap enough to be on
by default in the CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.usecase import UseCase, UseCaseResult

#: Where one use-case result came from.
SOURCE_COMPUTED = "computed"
SOURCE_DISK = "disk"
SOURCE_MEMORY = "memory"

_SOURCES = (SOURCE_COMPUTED, SOURCE_DISK, SOURCE_MEMORY)


@dataclass(frozen=True)
class UseCaseMetrics:
    """Measurements of one use-case evaluation within a sweep.

    Attributes:
        usecase: The evaluation point.
        source: ``"computed"``, ``"disk"`` or ``"memory"``.
        wall_time_s: Wall-clock seconds spent producing the result
            (0.0 for cache hits — the lookup cost is noise).
        evaluations: Optimizer candidate re-analyses the result cost
            when it was (originally) computed.
        prefetches: Accepted prefetch insertions.
        worker_pid: OS pid of the process that produced the result.
        pipeline: Analysis-pipeline counters of the run
            (hits/misses/delta runs...); empty for cache hits, which
            cost no analysis.
    """

    usecase: UseCase
    source: str
    wall_time_s: float
    evaluations: int
    prefetches: int
    worker_pid: int
    pipeline: Dict[str, int] = field(default_factory=dict)


@dataclass
class SweepMetrics:
    """Accumulates per-use-case metrics over one sweep run.

    Attributes:
        records: One entry per use case, in completion order.
        workers: Worker count of the run (1 = no process pool).
        failures: One :class:`~repro.experiments.sweep.FailureRecord`
            per permanently failed use case (duck-typed to avoid a
            circular import).
        retries: Transient-fault retries performed across the sweep.
        pool_rebuilds: Times a broken process pool was rebuilt.
    """

    records: List[UseCaseMetrics] = field(default_factory=list)
    workers: int = 1
    failures: List[object] = field(default_factory=list)
    retries: int = 0
    pool_rebuilds: int = 0

    def record(
        self,
        usecase: UseCase,
        result: UseCaseResult,
        source: str,
        wall_time_s: float = 0.0,
        worker_pid: int = 0,
    ) -> UseCaseMetrics:
        """Add one use case's measurements.

        Args:
            usecase: The evaluation point.
            result: Its result (evaluation/prefetch counts come from the
                embedded report).
            source: One of ``"computed"``/``"disk"``/``"memory"``.
            wall_time_s: Wall time spent computing (0.0 for hits).
            worker_pid: Producing process (defaults to this process).
        """
        if source not in _SOURCES:
            raise ValueError(f"unknown metrics source {source!r}")
        entry = UseCaseMetrics(
            usecase=usecase,
            source=source,
            wall_time_s=wall_time_s,
            evaluations=result.report.candidates_evaluated,
            prefetches=result.report.prefetch_count,
            worker_pid=worker_pid or os.getpid(),
            pipeline=(dict(result.report.pipeline)
                      if source == SOURCE_COMPUTED else {}),
        )
        self.records.append(entry)
        return entry

    def record_failure(self, record) -> None:
        """Add one permanently failed use case's failure record."""
        self.failures.append(record)

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def cases(self) -> int:
        """Use cases accounted for."""
        return len(self.records)

    @property
    def parallel(self) -> bool:
        """Whether the process-pool path ran."""
        return self.workers > 1

    @property
    def failed(self) -> int:
        """Use cases that failed permanently."""
        return len(self.failures)

    def count(self, source: str) -> int:
        """Number of records with the given source."""
        return sum(1 for r in self.records if r.source == source)

    @property
    def computed(self) -> int:
        """Results computed from scratch."""
        return self.count(SOURCE_COMPUTED)

    @property
    def disk_hits(self) -> int:
        """Results served from the on-disk cache."""
        return self.count(SOURCE_DISK)

    @property
    def memory_hits(self) -> int:
        """Results served from the in-process sweep cache."""
        return self.count(SOURCE_MEMORY)

    @property
    def compute_time_s(self) -> float:
        """Total wall time spent computing (sums worker time)."""
        return sum(r.wall_time_s for r in self.records)

    @property
    def evaluations(self) -> int:
        """Total optimizer candidate evaluations."""
        return sum(r.evaluations for r in self.records)

    @property
    def prefetches(self) -> int:
        """Total accepted prefetch insertions."""
        return sum(r.prefetches for r in self.records)

    def pipeline_totals(self) -> Dict[str, int]:
        """Summed analysis-pipeline counters across all recorded cases."""
        totals: Dict[str, int] = {}
        for record in self.records:
            for name, value in record.pipeline.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def worker_pids(self) -> Tuple[int, ...]:
        """Distinct pids that computed results (cache hits excluded)."""
        return tuple(
            sorted(
                {r.worker_pid for r in self.records if r.source == SOURCE_COMPUTED}
            )
        )

    def slowest(self, limit: int = 5) -> List[UseCaseMetrics]:
        """The ``limit`` most expensive computed use cases."""
        computed = [r for r in self.records if r.source == SOURCE_COMPUTED]
        computed.sort(key=lambda r: r.wall_time_s, reverse=True)
        return computed[:limit]

    def summary(self) -> str:
        """Human-readable sweep summary (the CLI's footer)."""
        lines = [
            f"sweep: {self.cases} use cases "
            f"({self.computed} computed, {self.disk_hits} from disk cache, "
            f"{self.memory_hits} from memory cache)",
            f"workers: {self.workers}"
            + (" (process pool)" if self.parallel else " (serial)"),
            f"optimizer: {self.evaluations} candidate evaluations, "
            f"{self.prefetches} prefetches inserted",
            f"compute time: {self.compute_time_s:.2f}s across "
            f"{max(len(self.worker_pids()), 1)} process(es)",
        ]
        if self.failed or self.retries or self.pool_rebuilds:
            lines.append(
                f"faults: {self.failed} failed, {self.retries} retries, "
                f"{self.pool_rebuilds} pool rebuild(s)"
            )
            for record in self.failures:
                usecase = record.usecase
                lines.append(
                    f"  FAILED {usecase.program}/{usecase.config_id}/"
                    f"{usecase.tech}: {record.error_type}: "
                    f"{record.message} (attempts={record.attempts})"
                )
        totals = self.pipeline_totals()
        if totals:
            delta = totals.get("delta_runs", 0)
            cold = totals.get("cold_runs", 0)
            lines.append(
                f"pipeline: {delta} delta / {cold} cold analyses, "
                f"{totals.get('delta_fallbacks', 0)} fallbacks, "
                f"{totals.get('structural_hits', 0)} structural hits, "
                f"{totals.get('invalidations', 0)} invalidations"
            )
        worst = self.slowest(3)
        if worst:
            slowest = ", ".join(
                f"{r.usecase.program}/{r.usecase.config_id}/{r.usecase.tech} "
                f"{r.wall_time_s:.2f}s"
                for r in worst
            )
            lines.append(f"slowest: {slowest}")
        return "\n".join(lines)
