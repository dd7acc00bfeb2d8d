"""Staged, incremental WCET analysis (the analysis pipeline).

:func:`repro.analysis.wcet.analyze_wcet` recomputes everything from the
CFG on every call.  That is the right interface for one-shot analyses,
but the optimizer's loop calls it once per candidate insertion and most
of the work is identical between calls: the ACFG of the unmodified
program, the abstract fixpoint over the untouched prefix, segments
replayed on in-states already seen.  :class:`AnalysisPipeline`
decomposes the analysis into stages whose products the caller hands
along explicitly; the pipeline keeps no results of its own.

The pipeline is the only place the dense kernel of
:mod:`repro.cache.kernel` runs, and the one incremental engine;
``analyze_wcet`` is the python oracle, called by name.  The stages:

1. **Structural artifacts** — ACFG, loop instance spans and the kernel
   schedule.  A call that names its ``base`` result and the ``edit``
   that derived the program from it — one prefetch inserted into one
   block, the optimizer's candidate — splices the base ACFG
   (:func:`~repro.program.acfg.splice_insertion`: one new vertex per
   VIVU instance of the block, suffix renumbered, memory blocks
   recomputed from a fresh layout) instead of rebuilding it; any other
   call runs :func:`~repro.program.acfg.build_acfg` and, when it names
   a ``base``, runs cold (a delta fallback).  A call handed an
   analysis of the same program (``reuse=``, how ``run_usecase`` passes
   the original measurement to ``optimize``) takes its artifacts and
   abstract fixpoints as they are.
2. **One dense fixpoint engine** — the L1 domains and the L2 must pass
   run on :func:`~repro.cache.kernel.propagate_kernel_batch`, each
   level with its own :class:`~repro.cache.kernel.SegmentMemo`, so a
   chain replayed on an in-state already seen — across candidates,
   sweeps and use-case phases — comes back from the memo.
3. **Delta re-analysis** — after a spliced prefetch insertion the
   pipeline computes the *divergence boundary*: the first changed rid
   the splice reports, lowered (closure) until no back edge of either
   graph crosses from at-or-above the boundary into the prefix.  Below
   the boundary the dataflow equations, classifications, ``t_w``
   entries, latency-guard verdicts and IPET table entries of the base
   analysis are provably unchanged, so the fixpoint and the structural
   solve warm-start there and only the affected suffix is recomputed.
   When the invariants cannot be established (no base, foreign base, no
   splice, boundary 0) the pipeline falls back to a cold run; a
   ``differential`` mode rebuilds every spliced ACFG and asserts it
   equal field by field, then re-runs every analysis — cold, delta or
   ``reuse=`` — from scratch on the rebuilt graph with the python
   oracle (``analyze_wcet``) and asserts bit-identical ``tau_w``,
   classifications, ``wcet_path_misses`` and WCET path.

The guard stage (per-reference times and the prefetch-latency guard)
reads only the ACFG's flat arrays — predecessor tuples, REF and
prefetch rids, per-rid memory blocks, straight-line runs — and one
weight list per analysis; the pairwise slack functions of
:mod:`repro.analysis.slack` remain its oracle.

Counters (stage runs and handoff reuses, segment-memo hits, delta
runs and fallbacks, invalidations) accumulate in :class:`PipelineStats`;
they are deterministic (pure functions of the analysis sequence) and
flow into :class:`~repro.core.optimizer.OptimizationReport`, sweep
metrics and the service's telemetry.  Wall-clock lives only in the
aggregate ``pipeline.<stage>`` spans of the active tracer (no-ops when
nothing traces), from which ``repro optimize --profile`` sums its
per-stage table.  A splice counts as a structural miss like a build,
so the counters do not depend on it; the ``pipeline.acfg`` span's
``spliced`` attribute tells the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.refine import (
    RefinementResult,
    apply_promotions,
    explore_concrete_states,
    nc_sets,
    refine_classifications,
)
from repro.analysis.slack import rest_instance_spans
from repro.analysis.structural import solve_wcet_path_tables
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import (
    WCETResult,
    _charged_persistent_blocks,
    _latency_guard,
    analyze_wcet,
    compute_ref_times,
)
from repro.cache.classify import CacheAnalysis, DataflowResult
from repro.cache.config import CacheConfig, HierarchyConfig, hierarchy_for
from repro.cache.kernel import (
    BlockUniverse,
    KernelSchedule,
    SegmentMemo,
    classify_references_dense,
    l2_hits_dense,
    l2_schedule,
    propagate_kernel_batch,
    schedule_differences,
)
from repro.errors import AnalysisError, UniverseOutgrown
from repro.obs.trace import SpanLike, active_tracer
from repro.program.acfg import (
    ACFG,
    build_acfg,
    splice_insertion,
    structural_differences,
)
from repro.program.cfg import ControlFlowGraph


@dataclass
class PipelineStats:
    """Counters of one :class:`AnalysisPipeline`.

    All counters are deterministic functions of the analysis sequence
    (no wall-clock, no memory addresses), so they can be embedded in
    serialized reports and compared across serial/parallel runs.
    """

    #: ``structural_``/``dataflow_hits`` count stage products reused
    #: from a result handed in with ``reuse=`` (``run_usecase`` hands
    #: the original measurement to ``optimize``); ``_misses`` count
    #: stage computations.
    structural_hits: int = 0
    structural_misses: int = 0
    dataflow_hits: int = 0
    dataflow_misses: int = 0
    kernel_segment_hits: int = 0
    kernel_segment_misses: int = 0
    delta_runs: int = 0
    cold_runs: int = 0
    delta_fallbacks: int = 0
    invalidations: int = 0
    differential_checks: int = 0
    refine_runs: int = 0
    refine_promotions: int = 0
    refine_states: int = 0
    refine_exhausted: int = 0

    def counters(self) -> Dict[str, int]:
        """Deterministic counter snapshot (safe to serialize in reports)."""
        data = {
            "structural_hits": self.structural_hits,
            "structural_misses": self.structural_misses,
            "dataflow_hits": self.dataflow_hits,
            "dataflow_misses": self.dataflow_misses,
            "kernel_segment_hits": self.kernel_segment_hits,
            "kernel_segment_misses": self.kernel_segment_misses,
            "delta_runs": self.delta_runs,
            "cold_runs": self.cold_runs,
            "delta_fallbacks": self.delta_fallbacks,
            "invalidations": self.invalidations,
            "differential_checks": self.differential_checks,
        }
        # The refinement counters join the snapshot only when the stage
        # ran, so every refine-off report stays byte-identical to the
        # pre-refinement serialization (mirroring the l2 treatment of
        # the service protocol's canonical params).
        if self.refine_runs:
            data["refine_runs"] = self.refine_runs
            data["refine_promotions"] = self.refine_promotions
            data["refine_states"] = self.refine_states
            data["refine_exhausted"] = self.refine_exhausted
        return data


@dataclass
class StructuralArtifacts:
    """Stage-1 products: everything derivable from the program alone."""

    acfg: ACFG
    #: REST instance spans ``(entry_join, last_rid, exit_rids)`` — the
    #: optimizer's loop ranges and the latency guard's wrap-around scopes.
    loop_spans: List[Tuple[int, int, Tuple[int, ...]]]
    #: The compiled :class:`~repro.cache.kernel.KernelSchedule`.
    #: Invalidated implicitly when the pipeline's block universe is
    #: rebuilt (the schedule keeps a reference to the universe it was
    #: compiled against).
    schedule: Optional[KernelSchedule] = None


class PipelineResult:
    """One analysis run: WCET bundle + reusable solver/dataflow state."""

    __slots__ = ("owner", "artifacts", "wcet", "dataflows", "best",
                 "best_pred")

    def __init__(self, owner, artifacts, wcet, dataflows, best, best_pred):
        #: The pipeline that produced this result.
        self.owner = owner
        self.artifacts = artifacts
        self.wcet = wcet
        #: Fixpoints and IPET tables to hand along.
        self.dataflows = dataflows
        self.best = best
        self.best_pred = best_pred

    @property
    def acfg(self) -> ACFG:
        """The analysed ACFG."""
        return self.artifacts.acfg


def divergence_boundary(old: ACFG, new: ACFG, first_changed: int) -> int:
    """The warm-start boundary between two ACFGs.

    ``first_changed`` is the lowest rid whose vertex differs, as the
    splice reports it (:func:`~repro.program.acfg.splice_insertion`).
    The boundary is that rid lowered by closure until no back edge of
    *either* graph — and no back edge present in only one of them —
    targets the prefix from at or above it.  With that closure, every
    analysis equation of vertices ``rid < boundary`` is identical in
    both graphs, so the prefix fixpoint states, classifications, ``t_w``
    entries, latency-guard verdicts and IPET table entries of the base
    analysis carry over unchanged.

    Returns 0 when nothing can be reused.
    """
    b = first_changed
    old_edges = set(old.back_edges)
    new_edges = set(new.back_edges)
    only_one = old_edges ^ new_edges
    every = old_edges | new_edges
    changed = True
    while changed and b > 0:
        changed = False
        for src, dst in every:
            if dst < b and (src >= b or (src, dst) in only_one):
                b = dst
                changed = True
    return max(b, 0)


def _context_of(config: CacheConfig, options) -> Dict[str, Any]:
    """The pipeline's fixed context an ``OptimizerOptions`` pins down,
    as :class:`AnalysisPipeline` stores it: built by ``for_options``,
    compared by ``matches_options``."""
    l2_spec = getattr(options, "l2", None)
    return {
        "with_persistence": options.with_persistence,
        "locked_blocks": frozenset(options.locked_blocks or ()),
        "base_address": options.base_address,
        "hierarchy": hierarchy_for(config, l2_spec) if l2_spec else None,
        "refine": bool(getattr(options, "refine", False)),
    }


class AnalysisPipeline:
    """Staged, incremental WCET analysis for one (config, timing) context.

    One pipeline serves one use case: the cache configuration, timing
    model, persistence setting, locked blocks and base address are fixed
    at construction, so every result it returns can seed a later call
    (``base=`` for a delta, ``reuse=`` for the same program).  It keeps
    no results itself; only the kernel's segment memos live as long as
    the pipeline.  It is the only home of the dense kernel; its oracle
    is :func:`~repro.analysis.wcet.analyze_wcet`.  Not thread-safe;
    sweep workers build one per use case.

    Args:
        config: Cache configuration.
        timing: Timing model.
        with_persistence: Run the persistence domain (must match the
            optimizer options the pipeline is used with).
        locked_blocks: Hybrid-locking pinned blocks.
        base_address: Program load address.
        differential: Verify every analysis — cold, delta or
            ``reuse=`` — against a cold run of the python oracle,
            :func:`~repro.analysis.wcet.analyze_wcet` (slow; used by the
            equivalence tests).
        hierarchy: Optional multi-level
            :class:`~repro.cache.config.HierarchyConfig`; its L1 must
            equal ``config``.  Adds an L2 must stage over the
            classification-filtered stream after classification,
            delta-warm-started at the same divergence boundary as the
            L1 stages.  ``None`` keeps the single-level analysis
            bit-identical to before.
        refine: Run the model-checking refinement
            (:mod:`repro.analysis.refine`) after classification and
            apply its NC->AH / NC->AM / NC->PS promotions (PS only
            under the persistence baseline without an L2) before the
            L2, guard and IPET stages.  Only the cache sets holding a
            ``NOT_CLASSIFIED`` reference are explored, warm-started at
            the divergence boundary like the abstract fixpoints.  ``False`` keeps every output
            byte-identical to before.
    """

    def __init__(
        self,
        config: CacheConfig,
        timing: TimingModel,
        with_persistence: bool = True,
        locked_blocks: frozenset = frozenset(),
        base_address: int = 0,
        differential: bool = False,
        hierarchy: Optional[HierarchyConfig] = None,
        refine: bool = False,
    ):
        self.config = config
        self.timing = timing
        self.with_persistence = with_persistence
        self.locked_blocks = frozenset(locked_blocks or ())
        self.base_address = base_address
        self.differential = differential
        self.stats = PipelineStats()
        self.refine = bool(refine)
        if hierarchy is not None and hierarchy.l1 != config:
            raise AnalysisError(
                f"hierarchy L1 {hierarchy.l1.label()} does not match the "
                f"pipeline configuration {config.label()}"
            )
        self.hierarchy = hierarchy
        #: Dense-kernel state: one block universe shared by every
        #: schedule/dense matrix of this pipeline (rebuilt with headroom
        #: when a program outgrows it), the L2's over the same columns,
        #: and one segment memo per level (the replays differ).
        self._universe: Optional[BlockUniverse] = None
        self._l2_universe: Optional[BlockUniverse] = None
        self._segment_memo = SegmentMemo(stats=self.stats)
        self._l2_memo = SegmentMemo(stats=self.stats)

    @classmethod
    def for_options(cls, config: CacheConfig, timing: TimingModel, options,
                    **kwargs) -> "AnalysisPipeline":
        """A pipeline matching an :class:`~repro.core.optimizer.OptimizerOptions`."""
        return cls(config, timing, **_context_of(config, options), **kwargs)

    def matches_options(self, options) -> bool:
        """Whether this pipeline's fixed context agrees with ``options``."""
        return all(
            getattr(self, name) == value
            for name, value in _context_of(self.config, options).items()
        )

    # ------------------------------------------------------------------
    # the staged analysis
    # ------------------------------------------------------------------
    def analyze(
        self,
        cfg: ControlFlowGraph,
        with_may: bool = True,
        base: Optional[PipelineResult] = None,
        edit: Optional[Tuple[str, int]] = None,
        reuse: Optional[PipelineResult] = None,
    ) -> PipelineResult:
        """Analyse ``cfg``, reusing what the caller hands along.

        Args:
            cfg: The program.
            with_may: Run the may domain (as in :func:`analyze_wcet`).
            base: A previous result *from this pipeline* to delta
                against — the analysis of the program this ``cfg`` was
                derived from by one prefetch insertion.
            edit: ``(block name, index)`` of that insertion.  With it
                the base ACFG is spliced and the analysis warm-starts at
                the divergence boundary; without it, or when the splice
                declines, the ACFG is built and the analysis runs cold
                (one ``delta_fallbacks``).
            reuse: A result *from this pipeline* of this same program,
                in either ``with_may`` mode.  Its structural artifacts
                and must/may/persistence fixpoints are reused; classify,
                refine, L2, guard and IPET run cold, because refine's
                ``NOT_CLASSIFIED`` sets depend on ``with_may``.  Not
                combinable with ``base``.

        Returns:
            A :class:`PipelineResult` whose ``wcet`` is bit-identical to
            a fresh :func:`~repro.analysis.wcet.analyze_wcet` call.
        """
        if reuse is not None and (
            base is not None or reuse.owner is not self
        ):
            raise AnalysisError(
                "reuse= takes a result of this pipeline and no base"
            )
        if base is not None and base.owner is not self:
            self.stats.delta_fallbacks += 1
            base = None
        if reuse is not None:
            self.stats.structural_hits += 1
            artifacts, first_changed = reuse.artifacts, None
        else:
            artifacts, first_changed = self._structural_stage(cfg, base, edit)
        acfg = artifacts.acfg
        # The graph the differential check analyses cold: a spliced
        # ACFG is checked against (and then replaced by) a full rebuild.
        oracle_acfg = acfg
        if first_changed is not None and self.differential:
            oracle_acfg = self._check_splice(cfg, acfg, artifacts.schedule)

        # Only a spliced candidate warm-starts: a base without an edit,
        # or one whose splice declined, runs cold.
        boundary = 0
        if base is not None:
            if first_changed is not None:
                boundary = divergence_boundary(
                    base.artifacts.acfg, acfg, first_changed
                )
            if boundary <= 0:
                self.stats.delta_fallbacks += 1
                base = None
        use_delta = base is not None and boundary > 0
        if use_delta:
            self.stats.delta_runs += 1
        else:
            self.stats.cold_runs += 1
            boundary = 0

        level2 = self.hierarchy.l2_level if self.hierarchy is not None else None
        domains = ["must"]
        # A second level implies the may domain: the L2 access plan's
        # definite accesses are the L1 always-misses (see
        # classify.l2_access_plan), so the fixpoint must have may even
        # in the optimizer's must-only hot loop — and the plan (hence
        # τ_w) stays identical across the caller's with_may choices.
        if with_may or level2 is not None:
            domains.append("may")
        if self.with_persistence:
            domains.append("persistence")
        dataflows: Dict[str, Any] = {}
        # Dense fixpoints are reusable only against the live universe (a
        # regrown one recompiles the schedule they were computed with).
        if reuse is not None and artifacts.schedule.universe is self._universe:
            dataflows = {
                domain: reuse.dataflows[domain]
                for domain in domains
                if domain in reuse.dataflows
            }
            self.stats.dataflow_hits += len(dataflows)
        missing = [domain for domain in domains if domain not in dataflows]
        with self._stage("fixpoint") as fixpoint_span:
            seg_hits = self.stats.kernel_segment_hits
            seg_misses = self.stats.kernel_segment_misses
            dataflows.update(self._dense_dataflow_stage(
                artifacts, missing, base, boundary
            ))
            if fixpoint_span.recording:
                fixpoint_span.set_attributes(
                    {
                        "kernel_segment_hits": self.stats.kernel_segment_hits
                        - seg_hits,
                        "kernel_segment_misses": self.stats.kernel_segment_misses
                        - seg_misses,
                        "accesses_elided": artifacts.schedule.accesses_elided,
                    }
                )

        with self._stage("classify"):
            classifications = classify_references_dense(
                acfg,
                dataflows["must"],
                dataflows.get("may"),
                dataflows.get("persistence"),
                self.locked_blocks or None,
                schedule=artifacts.schedule,
            )
            cache_analysis = CacheAnalysis(
                self.config,
                classifications,
                dataflows["must"],
                dataflows.get("may"),
                dataflows.get("persistence"),
            )

        # Downstream warm-starts (l2/guard/ipet) rely on the prefix
        # classifications matching the base run; refinement can break
        # that (a budget flip changes promotions without changing the
        # prefix equations), in which case they run cold.
        warm_boundary = boundary
        if self.refine:
            with self._stage("refine") as refine_span:
                undecided = nc_sets(acfg, self.config, classifications)
                exploration = self._refine_stage(
                    artifacts, undecided, base, boundary
                )
                # PS promotions would charge the one-time penalty at
                # the DRAM rate; with an L2 the unrefined bound can be
                # tighter (L2 service time), so they are single-level
                # only, and only where the baseline already charges
                # persistent blocks (see the refine module's soundness
                # note).
                promotions = refine_classifications(
                    acfg,
                    exploration,
                    classifications,
                    persistence=level2 is None and self.with_persistence,
                )
                self.stats.refine_runs += 1
                self.stats.refine_promotions += len(promotions)
                if exploration.exhausted:
                    self.stats.refine_exhausted += 1
                if promotions:
                    classifications = apply_promotions(
                        classifications, promotions
                    )
                    cache_analysis.classifications = classifications
                dataflows["refine"] = exploration
                if refine_span.recording:
                    refine_span.set_attributes(
                        {
                            "promotions": len(promotions),
                            "states": exploration.explored,
                            "nc_sets": len(undecided),
                            "sets_explored": len(exploration.per_set),
                            "exhausted": exploration.exhausted,
                        }
                    )
            if use_delta and classifications[:boundary] != (
                base.wcet.cache.classifications[:boundary]
            ):
                warm_boundary = 0
                self.stats.delta_fallbacks += 1
        use_warm = use_delta and warm_boundary > 0

        if level2 is not None:
            with self._stage("l2"):
                l2_must, l2_hits = self._l2_stage(
                    artifacts,
                    classifications,
                    base if use_warm else None,
                    warm_boundary,
                    level2.config,
                    dataflows["may"],
                )
                dataflows["l2-must"] = l2_must
                cache_analysis.l2_must = l2_must
                cache_analysis.l2_hits = l2_hits

        with self._stage("guard"):
            t_w = compute_ref_times(acfg, cache_analysis, self.timing)
            guarded = _latency_guard(
                acfg,
                cache_analysis,
                self.timing,
                t_w,
                boundary=warm_boundary,
                base_guarded=base.wcet.latency_guarded if use_warm else frozenset(),
                loop_spans=artifacts.loop_spans,
            )
            for rid in guarded:
                t_w[rid] = float(self.timing.miss_cycles)

        with self._stage("ipet"):
            warm = (warm_boundary, base.best, base.best_pred) if use_warm else None
            solution, best, best_pred = solve_wcet_path_tables(acfg, t_w, warm=warm)
            charged = _charged_persistent_blocks(acfg, cache_analysis, solution)
            wcet = WCETResult(
                acfg=acfg,
                cache=cache_analysis,
                timing=self.timing,
                t_w=t_w,
                solution=solution,
                persistent_charged_blocks=charged,
                latency_guarded=guarded,
            )

        if self.differential:
            self._differential_check(oracle_acfg, wcet, with_may)

        return PipelineResult(
            self, artifacts, wcet, dataflows, best, best_pred
        )

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _stage(self, name: str) -> SpanLike:
        """The aggregate ``pipeline.<name>`` span (a no-op untraced)."""
        return active_tracer().start_span("pipeline." + name, aggregate=True)

    def _structural_stage(
        self,
        cfg: ControlFlowGraph,
        base: Optional[PipelineResult],
        edit: Optional[Tuple[str, int]],
    ) -> Tuple[StructuralArtifacts, Optional[int]]:
        """The structural artifacts of ``cfg`` and, when its ACFG was
        spliced from ``base``'s, the lowest rid that differs from it.

        With a ``base`` and the ``edit`` that derived ``cfg`` from it
        (the optimizer's candidate insertion) the base ACFG is spliced
        (:func:`~repro.program.acfg.splice_insertion`); otherwise, or
        when the splice declines, :func:`~repro.program.acfg.build_acfg`
        runs.  Both count as a structural miss; the ``pipeline.acfg``
        span's ``spliced`` attribute tells them apart.
        """
        self.stats.structural_misses += 1
        with self._stage("acfg") as span:
            spliced = None
            if base is not None and edit is not None:
                spliced = splice_insertion(base.artifacts.acfg, cfg, *edit)
            if spliced is not None:
                acfg, first_changed = spliced
            else:
                acfg = build_acfg(
                    cfg, self.config.block_size, self.base_address
                )
                first_changed = None
            artifacts = StructuralArtifacts(
                acfg=acfg, loop_spans=rest_instance_spans(acfg)
            )
            # Schedule compilation is structural work (per program
            # content, domain-independent), so it rides the acfg stage;
            # a spliced graph splices its base's schedule.
            schedule = self._schedule_for(
                artifacts,
                base.artifacts.schedule if spliced is not None else None,
                first_changed or 0,
            )
            if span.recording:
                span.set_attributes({
                    "spliced": spliced is not None,
                    "steps": len(schedule.steps),
                    "steps_reused": schedule.steps_reused,
                })
        return artifacts, first_changed

    def _check_splice(
        self,
        cfg: ControlFlowGraph,
        spliced: ACFG,
        schedule: KernelSchedule,
    ) -> ACFG:
        """Rebuild a spliced ACFG from scratch and prove it equal, and
        its kernel schedule equal to a full compile of the rebuild."""
        rebuilt = build_acfg(cfg, self.config.block_size, self.base_address)
        problems = structural_differences(spliced, rebuilt)
        if problems:
            raise AnalysisError(
                "spliced ACFG differs from a full rebuild in: "
                + ", ".join(problems)
            )
        compiled = KernelSchedule(rebuilt, schedule.universe, self.locked_blocks)
        problems = schedule_differences(schedule, compiled)
        if problems:
            raise AnalysisError(
                "spliced kernel schedule differs from a full compile in: "
                + ", ".join(problems)
            )
        return rebuilt

    def _l2_stage(
        self,
        artifacts: StructuralArtifacts,
        classifications,
        base: Optional[PipelineResult],
        boundary: int,
        l2_config: CacheConfig,
        may: DataflowResult,
    ) -> Tuple[DataflowResult, frozenset]:
        """The L2 must fixpoint over the classification-filtered stream,
        and the references it proves to hit L2: the dense pass over
        :func:`~repro.cache.kernel.l2_schedule`, whose oracle is
        :func:`~repro.cache.classify.analyze_l2_must`.  Warm-starting at
        the divergence boundary is sound because the prefix
        classifications and may in-states — and with them the L2 access
        plan — are unchanged there.
        """
        self.stats.dataflow_misses += 1
        base_df = (
            base.dataflows.get("l2-must")
            if base is not None and boundary > 0
            else None
        )
        schedule = l2_schedule(
            self._schedule_for(artifacts), self._l2_universe,
            classifications, may,
        )
        warm = (boundary, {"must": base_df}) if base_df is not None else None
        l2_must = propagate_kernel_batch(
            schedule, ("must",), memo=self._l2_memo, warm=warm
        )["must"]
        return l2_must, l2_hits_dense(schedule, classifications, l2_must)

    def _refine_stage(
        self,
        artifacts: StructuralArtifacts,
        sets: FrozenSet[int],
        base: Optional[PipelineResult],
        boundary: int,
    ) -> RefinementResult:
        """The bounded concrete-state exploration of one program.

        Only ``sets`` — the cache sets holding a ``NOT_CLASSIFIED``
        reference — are explored, warm-started at the divergence
        boundary like the abstract fixpoints — reusing only the sets the
        base explored and completed, whose prefix line sets are
        converged and therefore sound to copy under the boundary
        closure.
        """
        self.stats.dataflow_misses += 1
        base_df = (
            base.dataflows.get("refine")
            if base is not None and boundary > 0
            else None
        )
        warm = (boundary, base_df) if base_df is not None else None
        result = explore_concrete_states(
            artifacts.acfg,
            self.config,
            locked_blocks=self.locked_blocks or None,
            warm=warm,
            sets=sets,
        )
        self.stats.refine_states += result.explored
        return result

    def _dense_dataflow_stage(
        self,
        artifacts: StructuralArtifacts,
        domains: Sequence[str],
        base: Optional[PipelineResult],
        boundary: int,
    ) -> Dict[str, DataflowResult]:
        """All requested domains in one batched dense fixpoint.

        Every domain rides a single stacked
        :func:`~repro.cache.kernel.propagate_kernel_batch` walk — one
        schedule traversal, one join, one memo probe per segment for the
        whole batch — warm-started at the divergence boundary when the
        base holds every requested domain.
        """
        if not domains:
            return {}
        self.stats.dataflow_misses += len(domains)
        schedule = self._schedule_for(artifacts)
        warm = None
        if base is not None and boundary > 0:
            bases = {
                domain: df
                for domain in domains
                for df in (base.dataflows.get(domain),)
                if df is not None
            }
            if len(bases) == len(domains):
                warm = (boundary, bases)
        return propagate_kernel_batch(
            schedule, domains, memo=self._segment_memo, warm=warm
        )

    def _schedule_for(
        self,
        artifacts: StructuralArtifacts,
        base: Optional[KernelSchedule] = None,
        first_changed: int = 0,
    ) -> KernelSchedule:
        """The compiled schedule of one ACFG against the live universe.

        Compiles optimistically against the current universe — the
        compiler's own column-range check doubles as the coverage probe,
        so the common candidate path skips the per-call block scan.  A
        program outgrowing the universe raises
        :class:`~repro.errors.UniverseOutgrown`, and only then is the
        universe regrown (with headroom) and the schedule recompiled.
        ``base``/``first_changed`` name the schedule of the graph this
        one was spliced from, whose unchanged prefix steps are reused.
        """
        schedule = artifacts.schedule
        universe = self._universe
        if schedule is not None and schedule.universe is universe:
            return schedule
        if universe is not None:
            try:
                schedule = KernelSchedule(
                    artifacts.acfg, universe, self.locked_blocks,
                    base=base, first_changed=first_changed,
                )
                artifacts.schedule = schedule
                return schedule
            except UniverseOutgrown:
                pass  # rebuild below
        universe = self._ensure_universe(artifacts.acfg)
        schedule = KernelSchedule(artifacts.acfg, universe, self.locked_blocks)
        artifacts.schedule = schedule
        return schedule

    def _ensure_universe(self, acfg: ACFG) -> BlockUniverse:
        """The pipeline's block universe, grown to cover ``acfg``.

        Rebuilding (a program referencing blocks outside the current
        range) clears the segment memos — dense rows of different widths
        are incomparable — and counts as an invalidation.  The headroom
        absorbs the small upward block drift of candidate programs (each
        prefetch insertion shifts later addresses by one instruction).
        """
        probe = BlockUniverse.for_acfg(acfg, self.config)
        current = self._universe
        if current is not None and current.covers(probe.base_block) and (
            current.covers(probe.base_block + probe.width - 1)
        ):
            return current
        lo = probe.base_block
        hi = probe.base_block + probe.width - 1
        if current is not None:
            lo = min(lo, current.base_block)
            hi = max(hi, current.base_block + current.width - 1)
        universe = BlockUniverse(self.config, lo, hi - lo + 1 + 32)
        self._universe = universe
        self._segment_memo.clear()
        self._l2_memo.clear()
        if self.hierarchy is not None and self.hierarchy.multi_level:
            l2_config = self.hierarchy.l2_level.config
            self._l2_universe = BlockUniverse(l2_config, lo, universe.width)
        if current is not None:
            self.stats.invalidations += 1
        return universe

    def _differential_check(self, acfg: ACFG, wcet: WCETResult,
                            with_may: bool) -> None:
        """Prove one analysis bit-identical to a from-scratch run of the
        python oracle, :func:`~repro.analysis.wcet.analyze_wcet`, in
        this pipeline's context."""
        self.stats.differential_checks += 1
        cold = analyze_wcet(
            acfg,
            self.config,
            self.timing,
            with_may=with_may,
            with_persistence=self.with_persistence,
            locked_blocks=self.locked_blocks or None,
            hierarchy=self.hierarchy,
            refine=self.refine,
        )
        problems = []
        if wcet.tau_w != cold.tau_w:
            problems.append(f"tau_w {wcet.tau_w!r} != {cold.tau_w!r}")
        if wcet.cache.classifications != cold.cache.classifications:
            problems.append("classifications differ")
        if wcet.t_w != cold.t_w:
            problems.append("t_w differs")
        if wcet.latency_guarded != cold.latency_guarded:
            problems.append("latency_guarded differs")
        if (wcet.cache.l2_hits or frozenset()) != (
            cold.cache.l2_hits or frozenset()
        ):
            problems.append("l2_hits differ")
        if wcet.solution.n_w != cold.solution.n_w:
            problems.append("n_w differs")
        # The optimizer's reverse walk follows the WCET path.
        if wcet.solution.on_path != cold.solution.on_path:
            problems.append("on_path differs")
        if wcet.solution.path != cold.solution.path:
            problems.append("path differs")
        if wcet.persistent_charged_blocks != cold.persistent_charged_blocks:
            problems.append("persistent_charged_blocks differ")
        if wcet.wcet_path_misses != cold.wcet_path_misses:
            problems.append(
                f"wcet_path_misses {wcet.wcet_path_misses} != "
                f"{cold.wcet_path_misses}"
            )
        if problems:
            raise AnalysisError(
                "pipeline analysis diverged from the python oracle: "
                + "; ".join(problems)
            )
