"""Data generators for every figure of the paper's evaluation.

Each ``figure*`` function returns plain data structures (rows/series)
matching what the paper plots; :mod:`repro.experiments.report` renders
them as text tables.  The benchmark harness has one module per figure
that calls these and prints the series next to the paper's reference
values (recorded in EXPERIMENTS.md).

* Figure 3 — average improvement in energy, ACET and WCET per cache
  capacity (paper overall averages: energy 11.2 %, ACET 10.2 %, WCET
  17.4 %).
* Figure 4 — miss-rate impact per capacity.
* Figure 5 — energy/ACET/WCET with the optimized program on 1/2 and
  1/4 capacity (paper: savings up to 21 %, WCET never grew).
* Figure 7 — per-use-case WCET ratio at 32 nm (all < 1).
* Figure 8 — executed-instruction ratio (paper max: +1.32 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.sweep import (
    SweepSpec,
    average,
    default_grid,
    group_by_capacity,
    run_sweep,
)
from repro.experiments.usecase import (
    UseCase,
    UseCaseResult,
    run_cross_capacity,
)


@dataclass
class CapacitySeries:
    """One per-capacity series: capacity (bytes) -> value."""

    label: str
    points: Dict[int, float] = field(default_factory=dict)

    def as_rows(self) -> List[Tuple[int, float]]:
        """Sorted (capacity, value) pairs."""
        return sorted(self.points.items())


@dataclass
class Figure3Data:
    """Average improvements (fractions, 0.112 = 11.2 %) per capacity.

    ``energy`` charges software prefetch DRAM transfers (physical
    model); ``energy_paper_mode`` does not (the paper's apparent
    accounting — see EXPERIMENTS.md).
    """

    energy: CapacitySeries
    energy_paper_mode: CapacitySeries
    acet: CapacitySeries
    wcet: CapacitySeries
    overall_energy: float
    overall_energy_paper_mode: float
    overall_acet: float
    overall_wcet: float


def figure3(spec: Optional[SweepSpec] = None) -> Figure3Data:
    """Figure 3: impact on energy efficiency vs cache capacity."""
    results = run_sweep(spec or default_grid())
    buckets = group_by_capacity(results)
    energy = CapacitySeries("energy improvement")
    energy_paper = CapacitySeries("energy (paper mode)")
    acet = CapacitySeries("ACET improvement")
    wcet = CapacitySeries("WCET improvement")
    for capacity, bucket in buckets.items():
        energy.points[capacity] = 1.0 - average(r.energy_ratio for r in bucket)
        energy_paper.points[capacity] = 1.0 - average(
            r.energy_ratio_paper_mode for r in bucket
        )
        acet.points[capacity] = 1.0 - average(r.acet_ratio for r in bucket)
        wcet.points[capacity] = 1.0 - average(r.wcet_ratio for r in bucket)
    return Figure3Data(
        energy=energy,
        energy_paper_mode=energy_paper,
        acet=acet,
        wcet=wcet,
        overall_energy=1.0 - average(r.energy_ratio for r in results),
        overall_energy_paper_mode=1.0
        - average(r.energy_ratio_paper_mode for r in results),
        overall_acet=1.0 - average(r.acet_ratio for r in results),
        overall_wcet=1.0 - average(r.wcet_ratio for r in results),
    )


@dataclass
class Figure4Data:
    """Average ACET miss rates per capacity, before and after."""

    before: CapacitySeries
    after: CapacitySeries

    def reduction(self, capacity: int) -> float:
        """Absolute miss-rate reduction at one capacity (in points)."""
        return self.before.points[capacity] - self.after.points[capacity]


def figure4(spec: Optional[SweepSpec] = None) -> Figure4Data:
    """Figure 4: impact on miss rate vs cache capacity."""
    results = run_sweep(spec or default_grid())
    buckets = group_by_capacity(results)
    before = CapacitySeries("miss rate (original)")
    after = CapacitySeries("miss rate (optimized)")
    for capacity, bucket in buckets.items():
        before.points[capacity] = average(r.original.miss_rate_acet for r in bucket)
        after.points[capacity] = average(r.optimized.miss_rate_acet for r in bucket)
    return Figure4Data(before=before, after=after)


@dataclass
class Figure5Data:
    """Cross-capacity reductions for one shrink factor.

    Values are averages of ``1 - ratio`` (positive = optimized program
    on the smaller cache still beats the original on the big cache).
    ``wcet_grew_anywhere`` reproduces the paper's safety observation
    ("the WCET did not grow for any use case").
    """

    capacity_factor: float
    energy: CapacitySeries
    acet: CapacitySeries
    wcet: CapacitySeries
    best_energy_saving: float
    wcet_grew_anywhere: bool


def figure5(
    capacity_factor: float,
    spec: Optional[SweepSpec] = None,
) -> Figure5Data:
    """Figure 5: optimized program on a 1/2 or 1/4 capacity cache.

    Capacities whose scaled version would undercut one cache set are
    skipped (the paper's shaded feasible region).

    Raises:
        ExperimentError: ``capacity_factor`` is not in ``(0, 1]``.
    """
    if not 0 < capacity_factor <= 1:
        raise ExperimentError(
            f"capacity factor must be in (0, 1], got {capacity_factor}"
        )
    base = spec or default_grid()
    energy = CapacitySeries(f"energy (x{capacity_factor})")
    acet = CapacitySeries(f"ACET (x{capacity_factor})")
    wcet = CapacitySeries(f"WCET (x{capacity_factor})")
    per_capacity: Dict[int, List[UseCaseResult]] = {}
    options = base.optimizer_options()
    for usecase in base.usecases():
        config = usecase.cache_config()
        scaled_capacity = int(config.capacity * capacity_factor)
        if scaled_capacity < config.associativity * config.block_size:
            continue
        result = run_cross_capacity(
            usecase, capacity_factor, seed=base.seed, options=options
        )
        per_capacity.setdefault(config.capacity, []).append(result)
    grew = False
    best = 0.0
    for capacity, bucket in sorted(per_capacity.items()):
        energy.points[capacity] = 1.0 - average(r.energy_ratio for r in bucket)
        acet.points[capacity] = 1.0 - average(r.acet_ratio for r in bucket)
        wcet.points[capacity] = 1.0 - average(r.wcet_ratio for r in bucket)
        best = max(best, *(1.0 - r.energy_ratio for r in bucket))
        grew = grew or any(r.wcet_ratio > 1.0 + 1e-9 for r in bucket)
    return Figure5Data(
        capacity_factor=capacity_factor,
        energy=energy,
        acet=acet,
        wcet=wcet,
        best_energy_saving=best,
        wcet_grew_anywhere=grew,
    )


@dataclass
class Figure7Data:
    """Per-use-case WCET ratios at one technology (paper: 32 nm)."""

    tech: str
    ratios: List[Tuple[str, str, float]]  # (program, config id, ratio)

    @property
    def all_below_one(self) -> bool:
        """Ineq. 12 for every use case (allowing equality for the
        use cases the optimizer left untouched)."""
        return all(ratio <= 1.0 + 1e-9 for _, _, ratio in self.ratios)

    @property
    def worst(self) -> float:
        """Largest (worst) ratio."""
        return max((r for _, _, r in self.ratios), default=1.0)

    @property
    def best(self) -> float:
        """Smallest (best) ratio."""
        return min((r for _, _, r in self.ratios), default=1.0)


def figure7(spec: Optional[SweepSpec] = None, tech: str = "32nm") -> Figure7Data:
    """Figure 7: WCET ratio of every use case at 32 nm."""
    base = spec or default_grid(techs=(tech,))
    results = run_sweep(base)
    ratios = [
        (r.usecase.program, r.usecase.config_id, r.wcet_ratio)
        for r in results
        if r.usecase.tech == tech
    ]
    return Figure7Data(tech=tech, ratios=ratios)


@dataclass
class Figure8Data:
    """Executed-instruction ratios (optimized / original)."""

    per_capacity: CapacitySeries
    max_increase: float  # paper: 0.0132 (+1.32 %)


def figure8(spec: Optional[SweepSpec] = None) -> Figure8Data:
    """Figure 8: instruction-count overhead of the inserted prefetches."""
    results = run_sweep(spec or default_grid())
    buckets = group_by_capacity(results)
    series = CapacitySeries("executed-instruction ratio")
    max_increase = 0.0
    for capacity, bucket in buckets.items():
        series.points[capacity] = average(r.instruction_ratio for r in bucket)
        max_increase = max(
            max_increase, *(r.instruction_ratio - 1.0 for r in bucket)
        )
    return Figure8Data(per_capacity=series, max_increase=max_increase)
