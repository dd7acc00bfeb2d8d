"""Verification of the paper's formal guarantees (Supplement S.2).

Theorem 1 states that the optimization never increases the memory
system's contribution to the WCET, provided memory operations execute in
program order.  In this implementation the property holds *by
construction* (the optimizer's re-analysis gate), but guarantees worth
having are guarantees worth checking independently — these functions are
used by the test suite, the examples, and the benchmark harness to
re-derive the claim from scratch on every optimized program:

* :func:`verify_wcet_guarantee` — re-analyses both programs once each
  and compares ``τ_w`` (Theorem 1) and the worst-case miss counts
  (Condition 2), and checks Definition 10 on the optimized analysis;
* :func:`verify_prefetch_equivalence` — Definition 5: stripping the
  prefetches must recover the original instruction stream exactly;
* :func:`verify_effectiveness` — Definition 10 for every inserted
  prefetch: the latency Λ fits in the minimum memory time between the
  prefetch and the first on-path use of its target block.

Each program is analysed cold by a fresh
:class:`~repro.analysis.pipeline.AnalysisPipeline` (no ``base``, no
``reuse``); in ``differential`` mode a pipeline checks every analysis
against the python oracle, ``analyze_wcet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import prefetch_lambda
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.errors import GuaranteeViolation
from repro.program.cfg import ControlFlowGraph


@dataclass(frozen=True)
class GuaranteeCheck:
    """Outcome of one independent guarantee verification.

    Attributes:
        tau_original: τ_w of the unoptimized program.
        tau_optimized: τ_w of the optimized program.
        misses_original: Worst-case miss count before.
        misses_optimized: Worst-case miss count after.
        ineffective_prefetches: rids of optimized-program references
            charged a hit less than Λ behind the prefetch supplying
            their block (Def. 10; see
            :func:`find_undercharged_references`).
    """

    tau_original: float
    tau_optimized: float
    misses_original: int
    misses_optimized: int
    ineffective_prefetches: List[int]

    @property
    def theorem1_holds(self) -> bool:
        """Whether τ_w did not increase."""
        return self.tau_optimized <= self.tau_original + 1e-6

    @property
    def condition2_holds(self) -> bool:
        """Whether the worst-case miss count did not increase."""
        return self.misses_optimized <= self.misses_original

    @property
    def all_effective(self) -> bool:
        """Whether every prefetch satisfies Definition 10."""
        return not self.ineffective_prefetches


def verify_wcet_guarantee(
    original: ControlFlowGraph,
    optimized: ControlFlowGraph,
    config: CacheConfig,
    timing: TimingModel,
    base_address: int = 0,
    strict: bool = True,
    with_persistence: bool = True,
    hierarchy: Optional[HierarchyConfig] = None,
    refine: bool = False,
) -> GuaranteeCheck:
    """Independently re-derive Theorem 1 for a program pair.

    Theorem 1 is *relative to the analysis that gated the insertions*:
    a program optimized under the classic must/may baseline is
    guaranteed non-regressing under that baseline, but may look worse
    under the tighter persistence baseline (and vice versa) — verify
    with the same ``with_persistence`` the optimizer used.  The same
    applies to the memory hierarchy and to the model-checking
    refinement: pass the same ``hierarchy`` and ``refine``.

    Args:
        original: The prefetch-free program.
        optimized: The transformed program.
        config: Cache configuration both run on.
        timing: Timing model.
        base_address: Layout base.
        strict: Raise :class:`GuaranteeViolation` on failure instead of
            returning a failing check.
        with_persistence: Analysis fidelity (match the optimizer's).
        hierarchy: Memory hierarchy (match the optimizer's; ``None`` is
            the single-level system).
        refine: Model-checking refinement of NOT_CLASSIFIED references
            (match the optimizer's).

    Returns:
        The :class:`GuaranteeCheck` with all measurements.
    """
    wcet_orig, wcet_opt = (
        AnalysisPipeline(
            config, timing, with_persistence=with_persistence,
            base_address=base_address, hierarchy=hierarchy, refine=refine,
        ).analyze(cfg).wcet
        for cfg in (original, optimized)
    )
    check = GuaranteeCheck(
        tau_original=wcet_orig.tau_w,
        tau_optimized=wcet_opt.tau_w,
        misses_original=wcet_orig.wcet_path_misses,
        misses_optimized=wcet_opt.wcet_path_misses,
        ineffective_prefetches=find_undercharged_references(
            wcet_opt.acfg, wcet_opt, timing
        ),
    )
    if strict and not check.theorem1_holds:
        raise GuaranteeViolation(
            f"Theorem 1 violated: τ_w {check.tau_original} -> "
            f"{check.tau_optimized}"
        )
    return check


def verify_prefetch_equivalence(
    original: ControlFlowGraph, optimized: ControlFlowGraph
) -> bool:
    """Definition 5: the programs differ only in prefetch instructions.

    Compares the block structure and the uid sequence of non-prefetch
    instructions; also requires the original to be prefetch-free.
    """
    if any(i.is_prefetch for i in original.instructions()):
        return False
    orig_blocks = {b.name: b for b in original.blocks}
    opt_blocks = {b.name: b for b in optimized.blocks}
    if set(orig_blocks) != set(opt_blocks):
        return False
    for name, orig_block in orig_blocks.items():
        orig_uids = [i.uid for i in orig_block.instructions]
        opt_uids = [
            i.uid for i in opt_blocks[name].instructions if not i.is_prefetch
        ]
        if orig_uids != opt_uids:
            return False
    return True


def verify_effectiveness(
    optimized: ControlFlowGraph,
    config: CacheConfig,
    timing: TimingModel,
    base_address: int = 0,
    with_persistence: bool = True,
    hierarchy: Optional[HierarchyConfig] = None,
    refine: bool = False,
) -> List[int]:
    """Timing soundness of every prefetch-enabled hit (Definition 10).

    The hardware needs Λ cycles to complete a prefetch; the WCET bound
    is sound only if no reference is *charged a hit* while lying closer
    than Λ behind the prefetch that would supply its block.  The
    analysis enforces this with its latency guard
    (:attr:`repro.analysis.wcet.WCETResult.latency_guarded` charges such
    references the miss latency); this function independently re-derives
    the slacks and reports any hit-charged reference that is too close.

    Returns:
        rids of under-charged references (empty when the guard did its
        job — the expected outcome).
    """
    wcet = AnalysisPipeline(
        config, timing, with_persistence=with_persistence,
        base_address=base_address, hierarchy=hierarchy, refine=refine,
    ).analyze(optimized).wcet
    return find_undercharged_references(wcet.acfg, wcet, timing)


def find_undercharged_references(acfg, wcet, timing: TimingModel) -> List[int]:
    """The latency-soundness check against an analysed program.

    Returns:
        rids of references charged less than the miss latency although
        their block arrives through a prefetch less than Λ ahead.
    """
    from repro.analysis.slack import (
        min_path_slack as _slack,
        rest_instance_spans,
        wraparound_slack as _wslack,
    )

    loop_spans = rest_instance_spans(acfg)
    miss_cycles = float(timing.miss_cycles)
    violations: List[int] = []
    uses_by_block: dict = {}
    for c in acfg.ref_vertices():
        if c.is_prefetch:
            continue
        if wcet.t_w[c.rid] >= miss_cycles:
            continue  # already charged a full miss: always sound
        uses_by_block.setdefault(acfg.block_of(c.rid), []).append(c.rid)
    for vertex in acfg.ref_vertices():
        if not vertex.is_prefetch:
            continue
        target_block = acfg.target_block_or_none(vertex.rid)
        if target_block is None:
            continue  # data prefetch: no instruction-cache hit to justify
        # Per-prefetch Λ: an L2-guaranteed transfer completes after the
        # L2 penalty, so nearer uses are still sound (single-level this
        # is exactly timing.prefetch_latency).
        latency = float(
            prefetch_lambda(wcet.cache, timing, vertex.rid, target_block)
        )
        for use in uses_by_block.get(target_block, []):
            if use > vertex.rid:
                slack = _slack(acfg, wcet.t_w, vertex.rid, use)
                if slack < latency:
                    violations.append(use)
            else:
                for join_rid, last_rid, exit_rids in reversed(loop_spans):
                    if not join_rid <= vertex.rid <= last_rid:
                        continue
                    if join_rid <= use <= vertex.rid:
                        slack = _wslack(
                            acfg, wcet.t_w, vertex.rid, use, join_rid, exit_rids
                        )
                        if slack < latency:
                            violations.append(use)
                    break
    return sorted(set(violations))
