"""One use case = (program, cache configuration, technology).

The paper's evaluation unit (Section 5 / S.4): for each use case it
compares the original executable ``e_p`` against the optimized
``e_{p,k,t}`` on three measures —

* ``τ_w`` — memory contribution to the WCET (conventional analysis),
* ``τ_a`` — memory contribution to the ACET (trace simulation),
* ``e_a`` — memory energy in the ACET scenario (trace + CACTI model) —

plus the executed-instruction count (Fig. 8) and miss rates (Fig. 4).
:func:`run_usecase` produces all of it; Figure 5's cross-capacity
variant (optimized program on a 1/2 or 1/4 capacity cache vs. the
original on the full cache) is :func:`run_cross_capacity`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.pipeline import AnalysisPipeline, PipelineResult
from repro.bench.registry import load
from repro.cache.config import (
    CacheConfig,
    TABLE2,
    hierarchy_for,
)
from repro.core.optimizer import OptimizationReport, OptimizerOptions, optimize
from repro.energy.cacti import hierarchy_model
from repro.energy.dram import DRAMModel
from repro.energy.metrics import EnergyBreakdown, account_energy
from repro.energy.technology import technology
from repro.errors import ExperimentError
from repro.obs.trace import active_tracer
from repro.program.cfg import ControlFlowGraph
from repro.sim.machine import simulate


@dataclass(frozen=True)
class UseCase:
    """Identifies one evaluation point of the sweep.

    Attributes:
        program: Benchmark name (Table 1).
        config_id: Cache configuration id (Table 2, ``"k1"``..``"k36"``).
        tech: Technology name (``"45nm"``/``"32nm"``).
        l2: Optional second-level cache spec
            (``assoc:block:capacity:latency``); ``None`` is the paper's
            single-level memory system.
    """

    program: str
    config_id: str
    tech: str
    l2: Optional[str] = None

    def row(self) -> List[str]:
        """The ``[program, config, tech(, l2)]`` case row of keys and
        serialized results; single-level use cases keep the original
        three-element row."""
        row = [self.program, self.config_id, self.tech]
        if self.l2 is not None:
            row.append(self.l2)
        return row

    @classmethod
    def from_row(cls, row: Sequence[Optional[str]]) -> "UseCase":
        """Inverse of :meth:`row` (a null fourth element is single-level)."""
        return cls(*row)

    def cache_config(self) -> CacheConfig:
        """Resolve the Table 2 configuration."""
        try:
            return TABLE2[self.config_id]
        except KeyError:
            raise ExperimentError(
                f"unknown cache configuration id {self.config_id!r}"
            ) from None


@dataclass
class ProgramMeasurement:
    """All measures of one executable on one cache/technology.

    Attributes:
        tau_w: Memory contribution to the WCET (cycles).
        tau_a: Memory contribution to the ACET (cycles).
        energy: Memory energy breakdown over the ACET run.
        miss_rate_acet: Demand miss rate of the trace run.
        miss_rate_wcet: Miss rate along the WCET scenario.
        executed_instructions: Dynamic instruction count of the run.
        static_instructions: Static instruction count of the binary.
        prefetch_transfer_energy_j: The DRAM energy spent on software
            prefetch transfers, separated out so the harness can also
            report the paper-comparable energy view (the paper's energy
            improvement exceeds its ACET improvement, which implies its
            trace-based estimation did not charge prefetch transfers;
            ours does by default — see EXPERIMENTS.md).
        l2_accesses: Second-level probes in the trace run (0 when the
            hierarchy is single-level).
        l2_hits: Second-level probes served without a DRAM transfer.
        l2_fills: Blocks installed into the second level.
        prefetch_l2_hits: Prefetch transfers the second level served.
    """

    tau_w: float
    tau_a: float
    energy: EnergyBreakdown
    miss_rate_acet: float
    miss_rate_wcet: float
    executed_instructions: int
    static_instructions: int
    prefetch_transfer_energy_j: float = 0.0
    l2_accesses: int = 0
    l2_hits: int = 0
    l2_fills: int = 0
    prefetch_l2_hits: int = 0

    @property
    def energy_paper_mode_j(self) -> float:
        """Total energy without the prefetch DRAM transfer charge."""
        return self.energy.total_j - self.prefetch_transfer_energy_j


@dataclass
class UseCaseResult:
    """Paired original/optimized measurements of one use case."""

    usecase: UseCase
    original: ProgramMeasurement
    optimized: ProgramMeasurement
    report: OptimizationReport

    # ------------------------------------------------------------------
    # the paper's three ratios (Inequations 10-12) + Fig. 8's
    # ------------------------------------------------------------------
    @property
    def energy_ratio(self) -> float:
        """``e_a(opt) / e_a(orig)`` (Ineq. 10; < 1 means savings)."""
        return _ratio(self.optimized.energy.total_j, self.original.energy.total_j)

    @property
    def acet_ratio(self) -> float:
        """``τ_a(opt) / τ_a(orig)`` (Ineq. 11)."""
        return _ratio(self.optimized.tau_a, self.original.tau_a)

    @property
    def wcet_ratio(self) -> float:
        """``τ_w(opt) / τ_w(orig)`` (Ineq. 12)."""
        return _ratio(self.optimized.tau_w, self.original.tau_w)

    @property
    def energy_ratio_paper_mode(self) -> float:
        """Energy ratio without charging prefetch DRAM transfers.

        The closest match to the paper's trace-based estimation (its
        energy improvement of 11.2 % exceeds its ACET improvement of
        10.2 %, which rules out a per-transfer prefetch charge).
        """
        return _ratio(
            self.optimized.energy_paper_mode_j,
            self.original.energy_paper_mode_j,
        )

    @property
    def instruction_ratio(self) -> float:
        """Executed instructions, optimized over original (Fig. 8)."""
        return _ratio(
            float(self.optimized.executed_instructions),
            float(self.original.executed_instructions),
        )


def _ratio(num: float, den: float) -> float:
    # 0/0 is a genuine no-op (neither build consumed the quantity), so
    # 1.0 is the honest ratio; anything/0 means the optimized build
    # consumes something the original did not — an unbounded regression
    # that must not masquerade as "unchanged".
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def measure_program(
    cfg: ControlFlowGraph,
    config: CacheConfig,
    tech_name: str,
    seed: int = 1,
    *,
    pipeline: AnalysisPipeline,
    l2: Optional[str] = None,
    analysis: Optional[PipelineResult] = None,
) -> ProgramMeasurement:
    """Analyse + simulate one executable on one hierarchy/technology.

    The WCET analysis runs through ``pipeline``, so its persistence,
    refine, locked-block, base-address and hierarchy settings apply
    (pass an ``l2`` that matches the pipeline's; the simulation uses
    the pipeline's base address).  ``analysis`` is that pipeline's
    analysis of ``cfg`` when the caller already holds it; it is
    measured instead of analysing again.
    """
    tech = technology(tech_name)
    hierarchy = hierarchy_for(config, l2)
    models = hierarchy_model(hierarchy, tech)
    model, l2_model, timing = models.l1, models.l2, models.timing
    wcet = (analysis or pipeline.analyze(cfg)).wcet
    level2 = hierarchy.l2_level
    sim = simulate(
        cfg, config, timing, seed=seed, base_address=pipeline.base_address,
        l2_config=level2.config if level2 is not None else None,
    )
    dram = DRAMModel(tech)
    energy = account_energy(sim.event_counts(), model, dram, l2_model=l2_model)
    return ProgramMeasurement(
        tau_w=wcet.tau_w,
        tau_a=sim.memory_cycles,
        energy=energy,
        miss_rate_acet=sim.miss_rate,
        miss_rate_wcet=wcet.wcet_miss_rate,
        executed_instructions=sim.fetches,
        static_instructions=cfg.instruction_count,
        prefetch_transfer_energy_j=(
            (sim.prefetch_transfers - sim.prefetch_l2_hits)
            * dram.access_energy_j(config.block_size)
        ),
        l2_accesses=sim.l2_accesses,
        l2_hits=sim.l2_hits,
        l2_fills=sim.l2_fills,
        prefetch_l2_hits=sim.prefetch_l2_hits,
    )


def _effective_options(
    usecase: UseCase,
    options: Optional[OptimizerOptions],
) -> Tuple[OptimizerOptions, Optional[str]]:
    """Reconcile the use case's L2 axis with the optimizer options.

    The use case is the authority on the hierarchy; options may carry
    the same spec (or none), but never a conflicting one.
    """
    opts = options or OptimizerOptions()
    if (
        usecase.l2 is not None
        and opts.l2 is not None
        and usecase.l2 != opts.l2
    ):
        raise ExperimentError(
            f"use case L2 spec {usecase.l2!r} conflicts with optimizer "
            f"options L2 spec {opts.l2!r}"
        )
    l2 = usecase.l2 or opts.l2
    if opts.l2 != l2:
        opts = replace(opts, l2=l2)
    return opts, l2


def pipeline_for_usecase(
    usecase: UseCase,
    options: Optional[OptimizerOptions] = None,
) -> AnalysisPipeline:
    """One shared analysis pipeline for all phases of one use case.

    Honors the optimizer options' analysis-relevant knobs (persistence
    domain, locked blocks, base address, hierarchy) so the same pipeline
    serves the measure → optimize → measure sequence of
    :func:`run_usecase` (its segment memos carry over).
    """
    config = usecase.cache_config()
    opts, l2 = _effective_options(usecase, options)
    tech = technology(usecase.tech)
    timing = hierarchy_model(hierarchy_for(config, l2), tech).timing
    return AnalysisPipeline.for_options(config, timing, opts)


def run_usecase(
    usecase: UseCase,
    seed: int = 1,
    options: Optional[OptimizerOptions] = None,
    pipeline: Optional[AnalysisPipeline] = None,
) -> UseCaseResult:
    """Run the paper's per-use-case experiment.

    Builds the program, measures the original, optimizes for the use
    case's cache/technology, and measures the optimized executable on
    the same cache/technology.  All three phases share one analysis
    pipeline (``pipeline`` or a fresh :func:`pipeline_for_usecase`).
    The original measurement's analysis is handed to :func:`optimize`
    as its ``start``.  A program the optimizer left unchanged is not
    measured again: analysis and simulation are pure functions of the
    program and the seed, so its optimized measurement is the
    original's.  The report's pipeline counters are taken after the
    last phase, so they count all three.
    """
    config = usecase.cache_config()
    tech = technology(usecase.tech)
    opts, l2 = _effective_options(usecase, options)
    timing = hierarchy_model(hierarchy_for(config, l2), tech).timing
    if pipeline is None:
        pipeline = pipeline_for_usecase(usecase, opts)
    tracer = active_tracer()
    with tracer.start_span(
        "usecase",
        attributes={
            "program": usecase.program,
            "config": usecase.config_id,
            "tech": usecase.tech,
        },
    ):
        original_cfg = load(usecase.program)
        with tracer.start_span("usecase.measure_original"):
            start = pipeline.analyze(original_cfg)
            original = measure_program(
                original_cfg, config, usecase.tech, seed=seed,
                pipeline=pipeline, l2=l2, analysis=start,
            )
        with tracer.start_span("usecase.optimize") as opt_span:
            optimized_cfg, report = optimize(
                original_cfg, config, timing, options=opts,
                pipeline=pipeline, start=start,
            )
            if opt_span.recording:
                opt_span.set_attributes(
                    {
                        "passes": report.passes,
                        "inserted": len(report.inserted),
                        "evaluations": report.candidates_evaluated,
                    }
                )
        optimized = original
        if report.inserted:
            with tracer.start_span("usecase.measure_optimized"):
                optimized = measure_program(
                    optimized_cfg, config, usecase.tech, seed=seed,
                    pipeline=pipeline, l2=l2,
                )
    report.pipeline = pipeline.stats.counters()
    return UseCaseResult(
        usecase=usecase, original=original, optimized=optimized, report=report
    )


def run_cross_capacity(
    usecase: UseCase,
    capacity_factor: float,
    seed: int = 1,
    options: Optional[OptimizerOptions] = None,
) -> UseCaseResult:
    """Figure 5's experiment: optimized program on a shrunken cache.

    The original program runs on the use case's full-capacity cache; the
    program is optimized *for the scaled-down configuration* and runs on
    it.  The energy comparison thus includes the smaller cache's lower
    leakage and per-access energy — the mechanism behind the paper's
    "up to 21% with 2-4x smaller caches" headline.

    Args:
        usecase: The base use case (full-size cache).
        capacity_factor: 0.5 or 0.25 in the paper.
        seed: Executor seed.
        options: Optimizer options.
    """
    if not 0 < capacity_factor <= 1:
        raise ExperimentError(
            f"capacity factor must be in (0, 1], got {capacity_factor}"
        )
    big = usecase.cache_config()
    small = big.scaled_capacity(capacity_factor)
    tech = technology(usecase.tech)
    opts, l2 = _effective_options(usecase, options)
    timing_big = hierarchy_model(hierarchy_for(big, l2), tech).timing
    timing_small = hierarchy_model(hierarchy_for(small, l2), tech).timing
    # Both sides are analysed through pipelines built from the same
    # options (refine, locked blocks, base address), each on its cache.
    small_pipeline = AnalysisPipeline.for_options(small, timing_small, opts)
    original_cfg = load(usecase.program)
    original = measure_program(
        original_cfg, big, usecase.tech, seed=seed,
        pipeline=AnalysisPipeline.for_options(big, timing_big, opts), l2=l2,
    )
    optimized_cfg, report = optimize(
        original_cfg, small, timing_small, options=opts,
        pipeline=small_pipeline,
    )
    optimized = measure_program(
        optimized_cfg, small, usecase.tech, seed=seed,
        pipeline=small_pipeline, l2=l2,
    )
    return UseCaseResult(
        usecase=usecase, original=original, optimized=optimized, report=report
    )
