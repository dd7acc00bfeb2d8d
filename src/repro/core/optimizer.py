"""The prefetching optimization algorithm (Section 4.4, Algorithm 3).

Iterative improvement over prefetch-equivalent programs:

1. run the preliminary WCET analysis (classification + IPET counts),
2. walk the ACFG's references in **reverse execution order**, replaying
   the optimization cache state (``Û_e``/``J_SE``,
   :mod:`repro.core.update`) to detect replacements (Property 3),
3. for each replacement whose evicted block is demanded again on the
   WCET path, evaluate the joint improvement criterion
   (:mod:`repro.core.profit`) and — if it passes — insert a prefetch at
   the replacement point,
4. re-analyse the transformed program and *keep the insertion only if*
   the memory contribution to the WCET did not grow (Condition 1) and
   the worst-case miss count shrank (Condition 2) — the authoritative
   re-analysis gate that makes Theorem 1 hold by construction,
5. repeat from 1 until no further insertion is accepted.

Termination: every accepted insertion strictly decreases the worst-case
miss count, which is bounded below; rejected candidates are memoised.

The ablation switches in :class:`OptimizerOptions` exist to *demonstrate*
why each gate matters (see ``benchmarks/test_ablations.py``): disabling
the WCET gate breaks Theorem 1, disabling effectiveness inserts
prefetches that cannot hide their latency, disabling the miss gate stops
the optimization from paying for itself.
"""

from __future__ import annotations

import bisect
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.pipeline import AnalysisPipeline, PipelineResult
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import WCETResult, prefetch_lambda
from repro.cache.classify import Classification
from repro.cache.config import CacheConfig, parse_l2_spec
from repro.core.profit import ProfitTerms, estimate_profit, wraparound_slack
from repro.core.relocation import (
    InsertionPoint,
    insertion_point_after,
    relocation_cost,
)
from repro.core.update import PrefetchCandidateEvent, collect_reverse_events
from repro.errors import GuaranteeViolation, OptimizationError
from repro.program.acfg import ACFG
from repro.program.cfg import ControlFlowGraph

#: Numerical slack for float comparisons of τ_w values.
TAU_EPSILON = 1e-6


@dataclass(frozen=True)
class OptimizerOptions:
    """Tuning knobs and ablation switches.

    Attributes:
        max_insertions: Hard cap on accepted prefetches.
        require_effectiveness: Gate on Definition 10 (Λ fits the slack).
        require_wcet_nonincrease: Gate on Condition 1 (τ_w must not grow).
            Disabling this is the ablation that *breaks* Theorem 1.
        require_miss_decrease: Gate on Condition 2 (worst-case misses
            must shrink).
        use_prefilter: Apply the static profit estimate before paying
            for a re-analysis.
        verify_guarantee: Re-assert Theorem 1 on the final program and
            raise :class:`~repro.errors.GuaranteeViolation` on failure.
        base_address: Code base address for layouts.
        max_evaluations: Optimization budget: total number of candidate
            re-analyses allowed (``None`` = unlimited).  Every gate still
            applies — exhausting the budget only stops the search early,
            it can never admit a bad insertion.  Sweeps over the full
            suite set this to bound worst-case programs (the search is
            O(|R|^2), matching the paper's complexity bound).
        placement: Where candidate prefetches go.
            ``"earliest-survivable"`` (the paper): at the reverse
            analysis' replacement point — the earliest spot from which
            the block survives until its use, maximising latency slack.
            ``"block-begin"`` (the strategy of the paper's ref. [5],
            which Section 2.2 criticises): at the beginning of the basic
            block containing the missing reference — often too close to
            hide Λ.  Exists for the ablation benchmark.
    """

    max_insertions: int = 256
    require_effectiveness: bool = True
    require_wcet_nonincrease: bool = True
    require_miss_decrease: bool = True
    use_prefilter: bool = True
    verify_guarantee: bool = True
    base_address: int = 0
    max_evaluations: Optional[int] = None
    placement: str = "earliest-survivable"
    #: When the gate rejects a candidate, retry the insertion up to this
    #: many instruction slots later in the same block.  Rejections are
    #: usually relocation artefacts (the 4-byte shift re-aligns blocks
    #: unfavourably); a nearby slot often relocates benignly while still
    #: covering the latency.  Part of the paper's "iterative improvement
    #: as far as an improvement can be observed" reading.
    placement_retries: int = 2
    #: Analysis fidelity for the preliminary WCET analysis: ``True``
    #: includes the persistence domain (tighter modern baseline),
    #: ``False`` is the classic must/may baseline of the paper's era.
    with_persistence: bool = True
    #: Hybrid locking+prefetching ([16]/[2], the paper's planned
    #: extension): memory blocks pinned in locked ways.  They always
    #: hit, never disturb the unlocked ways, and are never prefetch
    #: targets; the cache configuration passed to :func:`optimize` must
    #: then be the reduced-way residual configuration (see
    #: :func:`repro.sim.locking.optimize_with_locking`).
    locked_blocks: frozenset = frozenset()
    #: Second-level cache of the memory hierarchy, as an
    #: ``assoc:block:capacity:latency`` spec (see
    #: :func:`repro.cache.config.parse_l2_spec`), or ``None`` for the
    #: classic single-level system.  With an L2 the analyses run the
    #: Hardy & Puaut per-level fixpoint, Λ shrinks for prefetches whose
    #: target is guaranteed L2-resident, and the timing model must carry
    #: ``l2_hit_penalty_cycles``.
    l2: Optional[str] = None
    #: Run the model-checking refinement (:mod:`repro.analysis.refine`)
    #: after classification: NOT_CLASSIFIED references decided by the
    #: bounded concrete-state exploration are promoted to
    #: always-hit/always-miss, tightening ``t_w`` and the L2 access
    #: plan.  Sound (Theorem 1 is preserved; the differential suite
    #: proves refined WCET <= unrefined) but opt-in: the exploration
    #: costs extra analysis time and ``False`` keeps every output
    #: byte-identical to the unrefined analysis.
    refine: bool = False
    #: Init-only and stored nowhere: the analysis pipeline is dense
    #: only, and its python oracle is ``analyze_wcet``, called by name.
    #: ``None`` and ``"vectorized"`` are accepted because the benchmark's
    #: workloads still pass the latter; the parameter goes with the next
    #: change to the benchmark (ROADMAP item 6).
    kernel: InitVar[Optional[str]] = None

    def __post_init__(self, kernel: Optional[str]) -> None:
        if self.placement not in ("earliest-survivable", "block-begin"):
            raise OptimizationError(
                f"unknown placement strategy {self.placement!r}"
            )
        if kernel not in (None, "vectorized"):
            raise OptimizationError(
                f"kernel {kernel!r}: the analysis pipeline is dense only; "
                "its python oracle is analyze_wcet"
            )
        if self.l2 is not None:
            parse_l2_spec(self.l2)  # fail fast on a malformed spec


@dataclass
class InsertedPrefetch:
    """Record of one accepted insertion.

    Attributes:
        prefetch_uid: uid of the new prefetch instruction.
        target_uid: uid of the instruction whose block it loads.
        block_name: Block receiving the prefetch.
        index: Position within the block at insertion time.
        evictor_uid: Instruction whose access evicted the block
            (Property 3 detection site).
        miss_uid: The reference whose miss was precluded (``r_j``).
        terms: Criterion terms at decision time.
        rcost: Exact relocation cost (Eq. 8) measured by re-analysis.
        tau_before: τ_w before this insertion.
        tau_after: τ_w after this insertion.
        misses_before: Worst-case miss count before.
        misses_after: Worst-case miss count after.
    """

    prefetch_uid: int
    target_uid: int
    block_name: str
    index: int
    evictor_uid: int
    miss_uid: int
    terms: ProfitTerms
    rcost: float
    tau_before: float
    tau_after: float
    misses_before: int
    misses_after: int


@dataclass
class OptimizationReport:
    """Outcome of one :func:`optimize` run.

    All τ values are the memory system's contribution to the WCET.
    """

    program: str
    config: CacheConfig
    timing: TimingModel
    tau_original: float
    tau_final: float
    misses_original: int
    misses_final: int
    static_instructions_original: int
    static_instructions_final: int
    inserted: List[InsertedPrefetch] = field(default_factory=list)
    candidates_evaluated: int = 0
    candidates_rejected: int = 0
    passes: int = 0
    #: Snapshot of the analysis pipeline's counters, cumulative over
    #: the pipeline's lifetime when a shared one was passed in: taken
    #: at the end of the run, and retaken by ``run_usecase`` after the
    #: use case's last analysis, so its reports count every phase (the
    #: original measurement, the search and, with insertions, the
    #: optimized measurement).  Deterministic; serialized in reports.
    pipeline: Dict[str, int] = field(default_factory=dict)

    @property
    def prefetch_count(self) -> int:
        """Number of accepted prefetches."""
        return len(self.inserted)

    @property
    def wcet_reduction(self) -> float:
        """Relative τ_w reduction: ``1 - τ_final / τ_original``."""
        if self.tau_original == 0:
            return 0.0
        return 1.0 - self.tau_final / self.tau_original


def optimize(
    cfg: ControlFlowGraph,
    config: CacheConfig,
    timing: TimingModel,
    options: Optional[OptimizerOptions] = None,
    inplace: bool = False,
    pipeline: Optional[AnalysisPipeline] = None,
    start: Optional[PipelineResult] = None,
) -> Tuple[ControlFlowGraph, OptimizationReport]:
    """Run the paper's optimization on a program.

    Args:
        cfg: The program (must be prefetch-free unless resuming).
        config: Cache configuration to optimize for.
        timing: Timing model (from the energy model of the target
            technology).
        options: Gates and limits; defaults to the paper's setting.
        inplace: Mutate ``cfg`` instead of working on a clone.
        pipeline: Optionally share an
            :class:`~repro.analysis.pipeline.AnalysisPipeline` (e.g. the
            use case's, whose analysis of the original program can then
            be passed as ``start``).  Must agree with ``config``,
            ``timing`` and ``options``; by default ``start``'s pipeline
            or a fresh one.
        start: The pipeline's analysis of ``cfg``, in either
            ``with_may`` mode, when the caller already holds one.  The
            first analysis reuses its ACFG and abstract fixpoints
            instead of recomputing them.

    Returns:
        ``(optimized_program, report)``.  The optimized program is
        prefetch-equivalent to the input (Definition 5) and satisfies
        ``τ_w(optimized) <= τ_w(input)`` (Theorem 1) unless the
        corresponding gates were disabled.
    """
    opts = options or OptimizerOptions()
    work = cfg if inplace else cfg.clone()

    if pipeline is None:
        pipeline = (
            start.owner if start is not None
            else AnalysisPipeline.for_options(config, timing, opts)
        )
    if (
        pipeline.config != config
        or pipeline.timing != timing
        or not pipeline.matches_options(opts)
        or (start is not None and start.owner is not pipeline)
    ):
        raise OptimizationError(
            "shared analysis pipeline (or start analysis) disagrees with "
            "the optimizer's config/timing/options"
        )

    base = pipeline.analyze(work, with_may=False, reuse=start)
    report = OptimizationReport(
        program=work.name,
        config=config,
        timing=timing,
        tau_original=base.wcet.tau_w,
        tau_final=base.wcet.tau_w,
        misses_original=base.wcet.wcet_path_misses,
        misses_final=base.wcet.wcet_path_misses,
        static_instructions_original=work.instruction_count,
        static_instructions_final=work.instruction_count,
    )

    rejected: Set[Tuple] = set()
    while len(report.inserted) < opts.max_insertions:
        report.passes += 1
        accepted = _run_pass(work, timing, opts, pipeline, base, rejected, report)
        if accepted is None:
            break
        base = accepted

    report.tau_final = base.wcet.tau_w
    report.misses_final = base.wcet.wcet_path_misses
    report.static_instructions_final = work.instruction_count
    report.pipeline = pipeline.stats.counters()

    if opts.verify_guarantee and opts.require_wcet_nonincrease:
        if report.tau_final > report.tau_original + TAU_EPSILON:
            raise GuaranteeViolation(
                f"Theorem 1 violated: τ_w grew from {report.tau_original} "
                f"to {report.tau_final}"
            )
    return work, report


def _run_pass(
    work: ControlFlowGraph,
    timing: TimingModel,
    opts: OptimizerOptions,
    pipeline: AnalysisPipeline,
    base: PipelineResult,
    rejected: Set[Tuple],
    report: OptimizationReport,
) -> Optional[PipelineResult]:
    """One reverse walk; returns the accepted candidate's analysis.

    The per-pass artifacts — reverse events, miss uses, execution
    counts, loop ranges — are derived once from ``base``; candidate
    evaluations name their insertion to the pipeline, which splices
    ``base``'s ACFG and delta-analyses against ``base``, so only the
    suffix behind the insertion point is recomputed.
    """
    acfg = base.acfg
    wcet = base.wcet
    loop_spans = base.artifacts.loop_spans
    events = collect_reverse_events(
        acfg,
        wcet.cache.config,
        wcet.solution,
        locked_blocks=pipeline.locked_blocks or None,
        loop_spans=loop_spans,
    )
    # Per memory block: sorted rids of on-path references still paying
    # for a miss — the misses a prefetch could preclude.  Per
    # instruction uid: its WCET execution count.
    uses_by_block: Dict[int, List[int]] = {}
    exec_count_by_uid: Dict[int, int] = {}
    n_w = wcet.solution.n_w
    classifications = wcet.cache.classifications
    ref_block = acfg._ref_block
    uids = acfg.uid_arr.tolist()
    always_hit = Classification.ALWAYS_HIT
    for rid in acfg.ref_rids:
        count = n_w[rid]
        uid = uids[rid]
        exec_count_by_uid[uid] = exec_count_by_uid.get(uid, 0) + count
        if count and classifications[rid] is not always_hit:
            uses_by_block.setdefault(ref_block[rid], []).append(rid)
    loop_ranges = {join: (last, exits) for join, last, exits in loop_spans}

    for event in events:
        located = _locate_candidate(
            acfg, wcet, event, uses_by_block, loop_ranges, opts
        )
        if located is None:
            continue
        key, point, miss_rid, wrap_join, price_anchor = located
        if key in rejected:
            continue
        terms = _price_candidate(
            acfg, wcet, timing, price_anchor, miss_rid, wrap_join,
            loop_ranges, exec_count_by_uid,
        )
        miss_uid = acfg.instr[miss_rid].uid
        if opts.require_effectiveness and not terms.effective:
            rejected.add(key)
            continue
        if opts.use_prefilter and not terms.profitable:
            rejected.add(key)
            continue
        # Evaluate the candidate point and, on rejection, a few slots
        # further down the block (rejections are mostly relocation
        # artefacts of the exact byte position).
        accepted = None
        block_len = len(work.block(point.block_name).instructions)
        for offset in range(opts.placement_retries + 1):
            index = point.index + offset
            if index > block_len:
                break
            if (
                opts.max_evaluations is not None
                and report.candidates_evaluated >= opts.max_evaluations
            ):
                return None  # budget exhausted: end the search
            report.candidates_evaluated += 1
            prefetch = work.insert_prefetch(
                point.block_name, index, miss_uid
            )
            candidate = pipeline.analyze(
                work, with_may=False, base=base,
                edit=(point.block_name, index),
            )
            new_wcet = candidate.wcet
            ok = True
            if (
                opts.require_wcet_nonincrease
                and new_wcet.tau_w > wcet.tau_w + TAU_EPSILON
            ):
                ok = False
            if (
                opts.require_miss_decrease
                and new_wcet.wcet_path_misses >= wcet.wcet_path_misses
            ):
                ok = False
            # Note: lateness of earlier prefetches eroded by this
            # insertion needs no extra gate — analyze_wcet's
            # prefetch-latency guard charges any hit closer than Λ
            # behind a prefetch the full miss latency, so erosion shows
            # up in new_wcet.tau_w directly.
            if ok:
                accepted = (prefetch, candidate, index)
                break
            work.remove_prefetch(prefetch.uid)
            report.candidates_rejected += 1
        if accepted is None:
            rejected.add(key)
            continue
        prefetch, candidate, chosen_index = accepted
        new_wcet = candidate.wcet
        point = InsertionPoint(point.block_name, chosen_index)

        evictor = acfg.instr[event.insert_after_rid]
        evictor_uid = evictor.uid if evictor is not None else -1
        report.inserted.append(
            InsertedPrefetch(
                prefetch_uid=prefetch.uid,
                target_uid=miss_uid,
                block_name=point.block_name,
                index=point.index,
                evictor_uid=evictor_uid,
                miss_uid=miss_uid,
                terms=terms,
                rcost=relocation_cost(
                    wcet, new_wcet, prefetch.uid, miss_uid
                ),
                tau_before=wcet.tau_w,
                tau_after=new_wcet.tau_w,
                misses_before=wcet.wcet_path_misses,
                misses_after=new_wcet.wcet_path_misses,
            )
        )
        return candidate
    return None


def _locate_candidate(
    acfg: ACFG,
    wcet: WCETResult,
    event: PrefetchCandidateEvent,
    uses_by_block: Dict[int, List[int]],
    loop_ranges: Dict[int, Tuple[int, Tuple[int, ...]]],
    opts: OptimizerOptions,
) -> Optional[Tuple[Tuple, InsertionPoint, int, int, int]]:
    """Cheap half of candidate construction: find the precluded miss.

    The event already names the earliest survivable insertion point;
    this locates the dropped block's next on-path non-hit use —
    downstream for straight-line events, circularly (through the back
    edge) for wrapped events — and builds the memo key.  No slack or
    profit is computed here, so rejected candidates cost one bisect per
    pass.

    Returns:
        ``(key, point, miss_rid, wrap_join_rid)`` with ``wrap_join_rid
        == -1`` for non-circular reuse, or ``None``.
    """
    uses = uses_by_block.get(event.dropped_block)
    if not uses:
        return None
    if event.insert_after_rid == acfg.source:
        # Cold-miss candidate: the prefetch opens the program.
        point = InsertionPoint(acfg.cfg.blocks[0].name, 0)
        anchor_uid: int = -1
        anchor_ctx: Tuple = ()
    else:
        anchor = acfg.instr[event.insert_after_rid]
        assert anchor is not None
        maybe_point = insertion_point_after(acfg, event.insert_after_rid)
        if maybe_point is None:
            return None
        point = maybe_point
        anchor_uid = anchor.uid
        anchor_ctx = acfg.context[event.insert_after_rid]

    miss_rid: Optional[int] = None
    wrap_join = -1
    pos = bisect.bisect_right(uses, event.insert_after_rid)
    if not event.wrapped:
        if pos < len(uses):
            miss_rid = uses[pos]
    else:
        join_rid = event.loop_join_rid
        last_rid, _ = loop_ranges[join_rid]
        # Circularly-next use: rest of this iteration first, then the
        # top of the body (reached through the back edge).
        if pos < len(uses) and uses[pos] <= last_rid:
            miss_rid = uses[pos]
        else:
            lo = bisect.bisect_left(uses, join_rid)
            if lo < len(uses) and uses[lo] <= event.insert_after_rid:
                miss_rid = uses[lo]
                wrap_join = join_rid
    if miss_rid is None:
        return None
    miss_instr = acfg.instr[miss_rid]
    assert miss_instr is not None
    miss_ctx = acfg.context[miss_rid]
    price_anchor = event.insert_after_rid
    if opts.placement == "block-begin":
        # The strategy of ref. [5]: the prefetch opens the basic block
        # containing the missing reference.
        miss_block = acfg.block_name[miss_rid]
        assert miss_block is not None
        point = InsertionPoint(miss_block, 0)
        wrap_join = -1
        block = acfg.cfg.block(miss_block)
        first_rid = acfg.by_key(block.instructions[0].uid, miss_ctx)
        price_anchor = first_rid if first_rid is not None else miss_rid
        anchor_uid = block.instructions[0].uid
        anchor_ctx = miss_ctx
    key = (anchor_uid, anchor_ctx, miss_instr.uid, miss_ctx)
    return key, point, miss_rid, wrap_join, price_anchor


def _price_candidate(
    acfg: ACFG,
    wcet: WCETResult,
    timing: TimingModel,
    anchor_rid: int,
    miss_rid: int,
    wrap_join: int,
    loop_ranges: Dict[int, Tuple[int, Tuple[int, ...]]],
    exec_count_by_uid: Dict[int, int],
) -> ProfitTerms:
    """Expensive half: Eq. 5 slack and the Eq. 9 profit terms."""
    slack: Optional[float] = None
    if wrap_join >= 0:
        _, exit_rids = loop_ranges[wrap_join]
        slack = wraparound_slack(
            acfg, wcet.t_w, anchor_rid, miss_rid, wrap_join, exit_rids
        )
    elif anchor_rid >= miss_rid:
        slack = 0.0  # block-begin placement right at (or past) the use
    # A persistent (first-miss) reference pays one real miss regardless
    # of its execution count.
    if wcet.cache.classification(miss_rid) is Classification.PERSISTENT:
        n_miss = 1
    else:
        n_miss = wcet.n_w(miss_rid)
    anchor = acfg.instr[anchor_rid]
    anchor_uid = anchor.uid if anchor is not None else -1
    mcost: Optional[float] = None
    latency: Optional[float] = None
    if timing.l2_hit_penalty_cycles is not None:
        # Multi-level: credit the precluded miss at what it costs on the
        # worst-case path (an L2-guaranteed hit saves only the L2
        # penalty, not the full DRAM one), and use the per-prefetch Λ —
        # it shrinks to the L2 penalty when the target is guaranteed
        # L2-resident at the insertion point.
        mcost = float(wcet.t_w[miss_rid]) - float(timing.hit_cycles)
        latency = float(
            prefetch_lambda(
                wcet.cache, timing, anchor_rid, acfg.block_of(miss_rid)
            )
        )
    return estimate_profit(
        acfg,
        wcet.t_w,
        timing,
        insert_after_rid=anchor_rid,
        miss_rid=miss_rid,
        n_miss=n_miss,
        n_insert=exec_count_by_uid.get(anchor_uid, 1),
        slack=slack,
        mcost=mcost,
        latency=latency,
    )


