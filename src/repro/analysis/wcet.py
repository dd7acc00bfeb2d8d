"""End-to-end WCET analysis driver.

Composes the pieces the paper's preliminary analysis provides to the
optimizer (Section 4.4 preconditions):

1. cache classification of every reference (must/may abstract
   interpretation, :mod:`repro.cache.classify`),
2. per-reference worst-case memory times ``t_w(r)``,
3. the WCET scenario — execution counts ``n^w`` and the memory
   contribution ``τ^p_w`` (Eqs. 1-3), via the structural solver or the
   explicit ILP.

The result object is the interface the optimizer's joint improvement
criterion (:mod:`repro.core.profit`) consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.ipet import solve_ipet
from repro.analysis.refine import (
    apply_promotions,
    explore_concrete_states,
    nc_sets,
    refine_classifications,
)
from repro.analysis.structural import PathSolution, solve_wcet_path
from repro.analysis.timing import TimingModel
from repro.cache.classify import (
    HIT_CLASSES,
    CacheAnalysis,
    Classification,
    analyze_cache,
    analyze_l2_must,
    l2_guaranteed_hits,
)
from repro.cache.config import CacheConfig
from repro.errors import AnalysisError
from repro.program.acfg import ACFG


def compute_ref_times(
    acfg: ACFG, analysis: CacheAnalysis, timing: TimingModel
) -> List[float]:
    """Per-execution worst-case memory time ``t_w(r)`` for every vertex.

    References classified always-hit cost the hit latency; always-miss
    and not-classified references are conservatively charged the miss
    latency — unless the second-level analysis proved the block resident
    in L2 (``analysis.l2_hits``), in which case the L2 service time
    bounds the worst case.  When the model-checking refinement
    (:mod:`repro.analysis.refine`) ran, ``analysis.classifications``
    already carries its NC->AH promotions, so those references are
    charged the hit latency here — and dropped from the L2 access plan
    — without any special casing.  A software prefetch additionally
    occupies its issue slot (its block transfer is non-blocking and not
    charged here).  Non-reference vertices cost nothing.
    """
    times: List[float] = [0.0] * len(acfg.vertices)
    l2_hits = (
        analysis.l2_hits
        if timing.l2_hit_penalty_cycles is not None and analysis.l2_hits
        else frozenset()
    )
    hit = float(timing.hit_cycles)
    l2_hit = float(timing.l2_hit_cycles) if l2_hits else 0.0
    miss = float(timing.miss_cycles)
    classifications = analysis.classifications
    for rid in acfg.ref_rids:
        classification = classifications[rid]
        if classification in HIT_CLASSES:
            times[rid] = hit
        elif rid in l2_hits:
            times[rid] = l2_hit
        elif classification is None:
            raise AnalysisError(f"vertex {rid} is not classified")
        else:
            times[rid] = miss
    issue = float(timing.prefetch_issue_cycles)
    for rid in acfg.prefetch_rids:
        times[rid] += issue
    return times


@dataclass
class WCETResult:
    """The paper's preliminary-analysis bundle for one program/config.

    Attributes:
        acfg: The analysed ACFG.
        cache: Cache classification results.
        timing: Timing model used.
        t_w: Per-rid per-execution worst-case time.
        solution: WCET path and counts (``n^w``).
        persistent_charged_blocks: Memory blocks classified persistent
            (first-miss) whose one-time miss penalty is charged on top
            of the path objective.  A block already paying a full
            always-miss/not-classified reference on the path is not
            charged again.
    """

    acfg: ACFG
    cache: CacheAnalysis
    timing: TimingModel
    t_w: List[float]
    solution: PathSolution
    persistent_charged_blocks: frozenset = frozenset()
    #: References charged the miss latency by the prefetch-latency
    #: guard: they would hit only thanks to a prefetch issued less than
    #: Λ before them, which the hardware cannot guarantee.
    latency_guarded: frozenset = frozenset()

    @property
    def persistence_penalty(self) -> float:
        """One-time first-miss penalties added to the path objective."""
        return float(
            len(self.persistent_charged_blocks) * self.timing.miss_penalty_cycles
        )

    @property
    def tau_w(self) -> float:
        """``τ^p_w`` (Eq. 3): memory contribution to the WCET."""
        return self.solution.objective + self.persistence_penalty

    def tau_of(self, rid: int) -> float:
        """``τ^p_w(r)`` (Eq. 2): one reference's overall contribution."""
        return self.t_w[rid] * self.solution.n_w[rid]

    def n_w(self, rid: int) -> int:
        """``n^w`` of the basic-block instance holding ``rid``."""
        return self.solution.n_w[rid]

    @property
    def wcet_path_misses(self) -> int:
        """Worst-case number of demand misses (Condition 2 tracking).

        Counts every always-miss/not-classified reference on the WCET
        path weighted by its execution count, plus one first-miss per
        charged persistent block.  Cached after the first computation.
        """
        cached = getattr(self, "_misses_cache", None)
        if cached is not None:
            return cached
        total = len(self.persistent_charged_blocks)
        n_w = self.solution.n_w
        classifications = self.cache.classifications
        guarded = self.latency_guarded
        for rid in self.acfg.ref_rids:
            count = n_w[rid]
            if count and (
                classifications[rid] not in HIT_CLASSES or rid in guarded
            ):
                total += count
        self._misses_cache = total
        return total

    @property
    def wcet_path_l2_hits(self) -> int:
        """Worst-case L1 misses served by the L2 cache (hierarchy mode).

        A subset of :attr:`wcet_path_misses`: these references still
        miss L1 in the worst case but never reach DRAM.  Zero for
        single-level analyses.
        """
        l2_hits = self.cache.l2_hits
        if not l2_hits:
            return 0
        n_w = self.solution.n_w
        return sum(
            n_w[rid]
            for rid in l2_hits
            if n_w[rid] and rid not in self.latency_guarded
        )

    @property
    def wcet_path_fetches(self) -> int:
        """Worst-case number of instruction fetches (prefetches included)."""
        n_w = self.solution.n_w
        return sum([n_w[rid] for rid in self.acfg.ref_rids])

    @property
    def wcet_miss_rate(self) -> float:
        """Miss rate along the WCET scenario."""
        fetches = self.wcet_path_fetches
        if fetches == 0:
            return 0.0
        return self.wcet_path_misses / fetches


def analyze_wcet(
    acfg: ACFG,
    config: CacheConfig,
    timing: TimingModel,
    backend: str = "structural",
    with_may: bool = True,
    with_persistence: bool = True,
    locked_blocks: Optional[frozenset] = None,
    hierarchy=None,
    refine: bool = False,
) -> WCETResult:
    """Run the full preliminary WCET analysis.

    The python oracle, the cold analysis of record: every stage runs
    from scratch on the per-state python domains, in one classify ->
    refine -> L2 -> guard -> IPET sequence.  It is what an
    :class:`~repro.analysis.pipeline.AnalysisPipeline`'s
    ``differential`` mode checks each analysis against.  The dense
    kernel runs only inside the pipeline; a caller that wants it
    analyses through a pipeline.

    Args:
        acfg: Program ACFG (built with the cache's block size).
        config: Cache configuration.
        timing: Timing model.
        backend: ``"structural"`` (exact DP, default) or ``"ilp"``
            (scipy/HiGHS IPET; slower, used for cross-validation).
        with_may: Forwarded to :func:`repro.cache.classify.analyze_cache`
            (the WCET bound is identical either way; ``False`` is faster;
            forced on with a second level).
        with_persistence: Include the persistence ("first miss") domain.
            ``True`` is the tighter modern baseline; ``False`` is the
            classic must/may baseline of the paper's era — see
            EXPERIMENTS.md for the impact of this choice on the
            reproduced improvement magnitudes.
        locked_blocks: Hybrid locking+prefetching: blocks pinned in
            locked ways (always hit; ``config`` must then be the
            reduced-way residual configuration).
        hierarchy: Optional multi-level
            :class:`~repro.cache.config.HierarchyConfig` (its L1 must
            equal ``config`` and ``timing`` must carry the matching
            ``l2_hit_penalty_cycles``); adds the L2 must fixpoint and
            charges proven L2 hits the L2 service time.
        refine: Run the model-checking refinement
            (:mod:`repro.analysis.refine`) on the ``NOT_CLASSIFIED``
            references — exploring only the cache sets they map to,
            exactly as the pipeline does — and apply its NC->AH /
            NC->AM / NC->PS promotions (PS only under the persistence
            baseline without an L2) before computing ``t_w`` — and, in
            hierarchy mode, before deriving the L2 access plan,
            mirroring the staged pipeline's classify -> refine -> l2
            order exactly.

    Returns:
        The :class:`WCETResult`.
    """
    if hierarchy is not None and hierarchy.l1 != config:
        raise AnalysisError(
            f"hierarchy L1 {hierarchy.l1.label()} does not match the "
            f"analysed configuration {config.label()}"
        )
    level2 = hierarchy.l2_level if hierarchy is not None else None
    cache = analyze_cache(
        acfg,
        config,
        # A second level implies the may analysis: only an L1
        # always-miss is a *definite* L2 access, and definite accesses
        # are the only way the L2 must domain gains blocks (see
        # l2_access_plan).  Forcing it also keeps the L2 plan — and
        # hence τ_w — independent of the caller's with_may choice.
        with_may=with_may or level2 is not None,
        with_persistence=with_persistence,
        locked_blocks=locked_blocks,
    )
    if refine:
        # Promotions land before the L2 plan is derived (an NC->AH
        # promotion removes the reference from the L2 access stream):
        # the staged pipeline's classify -> refine -> l2 order.
        exploration = explore_concrete_states(
            acfg,
            config,
            locked_blocks=locked_blocks,
            sets=nc_sets(acfg, config, cache.classifications),
        )
        promotions = refine_classifications(
            acfg,
            exploration,
            cache.classifications,
            persistence=level2 is None and with_persistence,
        )
        if promotions:
            cache.classifications = apply_promotions(
                cache.classifications, promotions
            )
    if level2 is not None:
        cache.l2_must = analyze_l2_must(
            acfg,
            level2.config,
            cache.classifications,
            locked_blocks,
            may=cache.may,
        )
        cache.l2_hits = l2_guaranteed_hits(
            acfg, cache.classifications, cache.l2_must
        )
    t_w = compute_ref_times(acfg, cache, timing)
    guarded = _latency_guard(acfg, cache, timing, t_w)
    for rid in guarded:
        t_w[rid] = float(timing.miss_cycles)
    if backend == "structural":
        solution = solve_wcet_path(acfg, t_w)
    elif backend == "ilp":
        ilp = solve_ipet(acfg, t_w)
        on_path = [count > 0 for count in ilp.n_w]
        solution = PathSolution(
            objective=ilp.objective,
            n_w=ilp.n_w,
            on_path=on_path,
            path=[rid for rid, used in enumerate(on_path) if used],
        )
    else:
        raise AnalysisError(f"unknown WCET backend {backend!r}")
    charged = _charged_persistent_blocks(acfg, cache, solution)
    return WCETResult(
        acfg=acfg,
        cache=cache,
        timing=timing,
        t_w=t_w,
        solution=solution,
        persistent_charged_blocks=charged,
        latency_guarded=guarded,
    )


def prefetch_lambda(cache, timing, prefetch_rid: int, target: int) -> int:
    """Λ of one prefetch: the worst-case cycles until its block lands.

    Single-level: always the DRAM transfer time
    (:attr:`TimingModel.prefetch_latency`).  Multi-level: when the L2
    must state entering the prefetch guarantees the target block is
    resident in L2, the transfer is served by L2 and Λ shrinks to the
    L2 hit penalty — the hierarchy's main effect on placement
    profitability (shorter Λ needs less slack to hide).
    """
    if timing.l2_hit_penalty_cycles is not None and cache.l2_must is not None:
        must_in = cache.l2_must.in_states[prefetch_rid]
        if must_in is not None and target in must_in:
            return timing.l2_hit_penalty_cycles
    return timing.prefetch_latency


def _latency_guard(
    acfg,
    cache,
    timing,
    t_w,
    boundary: int = 0,
    base_guarded: frozenset = frozenset(),
    loop_spans=None,
) -> frozenset:
    """References whose hit classification cannot be guaranteed in time.

    The abstract semantics install a prefetched block immediately; the
    hardware needs Λ cycles.  Any hit-classified reference to a
    prefetched block lying (on some path — minimum slack) closer than Λ
    behind the prefetch is therefore charged the miss latency, covering
    both straight-line and loop-carried (wrap-around) proximity.  This
    is the conservative counterpart of the prefetching-aware abstract
    semantics of the paper's ref. [22].

    Slack queries are batched: one DAG sweep per prefetch covers all its
    straight-line uses, and per loop instance the tail of the wrap-around
    slack is computed once and shared across the wrapped uses.  The
    sweeps read only the ACFG's flat arrays (predecessor tuples, REF and
    prefetch rids, per-rid blocks) and one weight list built per call,
    and replay exactly the per-pair recurrence, so the guarded set is
    identical to pairwise evaluation.

    ``boundary``/``base_guarded`` support the delta re-analysis of
    :mod:`repro.analysis.pipeline`: verdicts of uses below the
    divergence boundary are taken from ``base_guarded`` and only pairs
    with ``use >= boundary`` are recomputed.  Sound because after the
    boundary closure no slack span of a below-boundary use crosses the
    boundary (straight-line spans end at the use; a wrap-around span
    reaching past it would need a back edge from >= boundary into the
    prefix, which the closure rules out).  ``loop_spans`` are the
    ACFG's :func:`~repro.analysis.slack.rest_instance_spans` when the
    caller has them cached.
    """
    from repro.analysis.slack import (
        _path_slacks,
        _tail_slack,
        rest_instance_spans,
    )

    prefetch_rids = acfg.prefetch_rids
    if not prefetch_rids:
        return frozenset()
    target_block = acfg._target_block
    targets = {target_block[rid] for rid in prefetch_rids}
    targets.discard(None)
    ref_block = acfg._ref_block
    classifications = cache.classifications
    prefetches = set(prefetch_rids)
    uses_by_block: dict = {}
    for rid in acfg.ref_rids:
        block = ref_block[rid]
        if (
            block in targets
            and rid not in prefetches
            and classifications[rid] in HIT_CLASSES
        ):
            uses_by_block.setdefault(block, []).append(rid)
    spans = rest_instance_spans(acfg) if loop_spans is None else loop_spans
    w = acfg.weights(t_w)
    guarded = {use for use in base_guarded if use < boundary}
    for prefetch in prefetch_rids:
        target = target_block[prefetch]
        if target is None:
            continue  # data prefetch: no instruction-cache effect
        latency = float(prefetch_lambda(cache, timing, prefetch, target))
        uses = uses_by_block.get(target, ())
        straight = [
            use
            for use in uses
            if use > prefetch and use >= boundary and use not in guarded
        ]
        if straight:
            slacks = _path_slacks(acfg, w, prefetch, straight)
            for use in straight:
                if slacks[use] < latency:
                    guarded.add(use)
        # Loop-carried proximity: prefetch late in the body, use early
        # in the next iteration of the same (innermost) instance.
        wrapped = [
            use
            for use in uses
            if use <= prefetch and use >= boundary and use not in guarded
        ]
        if not wrapped:
            continue
        for join_rid, last_rid, exit_rids in reversed(spans):
            if not join_rid <= prefetch <= last_rid:
                continue
            in_span = [use for use in wrapped if join_rid <= use]
            if in_span:
                tail = _tail_slack(acfg, w, prefetch, exit_rids)
                if not math.isinf(tail):
                    heads = _path_slacks(acfg, w, join_rid, in_span)
                    for use in in_span:
                        if tail + heads[use] < latency:
                            guarded.add(use)
            break
    return frozenset(guarded)


def _charged_persistent_blocks(acfg, cache, solution) -> frozenset:
    """Blocks owing a one-time first-miss penalty.

    A persistent block is charged when it has an on-path PERSISTENT
    reference and no on-path reference already paying a full miss
    (which would cover the single real miss).
    """
    persistent: set = set()
    fully_charged: set = set()
    n_w = solution.n_w
    ref_block = acfg._ref_block
    classifications = cache.classifications
    persistent_class = Classification.PERSISTENT
    always_hit = Classification.ALWAYS_HIT
    for rid in acfg.ref_rids:
        if n_w[rid] == 0:
            continue
        classification = classifications[rid]
        if classification is persistent_class:
            persistent.add(ref_block[rid])
        elif classification is not always_hit:
            if classification is None:
                raise AnalysisError(f"vertex {rid} is not classified")
            fully_charged.add(ref_block[rid])
    return frozenset(persistent - fully_charged)
