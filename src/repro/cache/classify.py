"""Cache-behaviour classification over the ACFG.

Runs the must/may abstract interpretation of
:mod:`repro.cache.abstract` over an :class:`~repro.program.acfg.ACFG`
and classifies every reference vertex as

* ``ALWAYS_HIT`` — the referenced block is in the must state before the
  access (hit on every path, every iteration the context covers),
* ``ALWAYS_MISS`` — the block is absent from the may state,
* ``NOT_CLASSIFIED`` — neither provable; WCET analysis must assume a
  miss.

Loop ``REST`` contexts are closed through the ACFG's analysis-only back
edges with a Kleene fixpoint: the state entering a REST instance joins
the first iteration's exit with the REST instance's own exit, iterated
until stable.  This is the standard way the VIVU "rest" context
summarises iterations 2..bound soundly.

Software prefetch vertices update the state twice: once for their own
fetch (a prefetch is an instruction and occupies a block), once for the
block they load.  The *timing* validity of that second update (the
latency Λ must be hidden) is enforced by the optimizer's effectiveness
gate (Definition 10) and re-checked by
:mod:`repro.core.guarantees`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.abstract import AbstractCacheState, MayState, MustState
from repro.cache.config import CacheConfig
from repro.cache.persistence import PersistenceState
from repro.errors import AnalysisError
from repro.program.acfg import ACFG

#: Hard cap on fixpoint passes; reaching it indicates a bug, since the
#: must/may lattices have height bounded by associativity x blocks.
MAX_FIXPOINT_PASSES = 64


class Classification(enum.Enum):
    """Static classification of one reference.

    ``PERSISTENT`` ("first miss") means the referenced block is never
    evicted once loaded: WCET analysis charges the miss penalty once per
    block and the hit latency per access (see
    :mod:`repro.cache.persistence`).
    """

    ALWAYS_HIT = "AH"
    ALWAYS_MISS = "AM"
    PERSISTENT = "PS"
    NOT_CLASSIFIED = "NC"

    @property
    def is_hit(self) -> bool:
        """True when WCET analysis charges only the hit latency per access."""
        return self in HIT_CLASSES

    @property
    def is_always_hit(self) -> bool:
        """True only for the must-proven always-hit class."""
        return self is Classification.ALWAYS_HIT


#: The classifications :attr:`Classification.is_hit` holds for.  A
#: tuple, so per-reference loops test ``c in HIT_CLASSES`` by identity
#: without a property call.
HIT_CLASSES: Tuple[Classification, ...] = (
    Classification.ALWAYS_HIT,
    Classification.PERSISTENT,
)

#: The layered precedence of the classification lattice, weakest claim
#: first: ``NC < AM < PS < AH``.  This is exactly the code table the
#: dense kernel bakes into its precompiled gather arrays
#: (:func:`repro.cache.kernel.classify_references_dense`), and the
#: order :func:`classify_references` applies its overwrites in — keep
#: the three in sync.  Refinement promotions
#: (:mod:`repro.analysis.refine`) may only move a reference to a
#: *later* layer, so a promoted label can never be weakened by either
#: classifier.
CLASSIFICATION_LAYERS: Tuple[Classification, ...] = (
    Classification.NOT_CLASSIFIED,
    Classification.ALWAYS_MISS,
    Classification.PERSISTENT,
    Classification.ALWAYS_HIT,
)


def classification_rank(classification: Classification) -> int:
    """Index of a classification in :data:`CLASSIFICATION_LAYERS`."""
    return CLASSIFICATION_LAYERS.index(classification)


@dataclass
class DataflowResult:
    """Per-vertex in/out states of one abstract interpretation run."""

    in_states: List[Optional[AbstractCacheState]]
    out_states: List[Optional[AbstractCacheState]]
    passes: int


#: Marker for a statically-unknown access in a custom access plan.
UNKNOWN_ACCESS = "?"

#: Marker for an access that *may or may not* occur, paired with its
#: block id as ``(MAYBE_ACCESS, block)``.  The transfer is
#: ``join(update(state, block), state)`` — the join of the accessed and
#: the untouched successor states — which over-approximates both
#: outcomes in every domain (it weakens must guarantees and widens may
#: contents).  This is the op Hardy & Puaut's multi-level analysis
#: needs for L2: a reference not provably hitting L1 reaches L2 on some
#: paths/iterations but not necessarily all of them.
MAYBE_ACCESS = "?maybe"


def propagate(
    acfg: ACFG,
    config: CacheConfig,
    initial: AbstractCacheState,
    locked_blocks: Optional[frozenset] = None,
    plan: Optional[List[Optional[tuple]]] = None,
) -> DataflowResult:
    """Run one abstract domain over the ACFG to fixpoint.

    The python kernel and the oracle of the dense engine
    (:func:`repro.cache.kernel.propagate_kernel_batch`): it calls the
    domain's own ``update``/``join``/``unknown_access`` state by state,
    always from the source (the incremental warm starts are the dense
    engine's alone).
    Pass 1 is a full topological sweep; every later pass only
    re-processes vertices whose (forward or back-edge) inputs changed —
    the standard worklist optimisation.

    Args:
        acfg: The program's ACFG.
        config: Cache configuration (defines set mapping).
        initial: State at the source — typically the all-invalid state
            of the chosen domain (``MustState(config)``/``MayState(config)``).

    Returns:
        A :class:`DataflowResult` with the converged states.
    """
    n = len(acfg)
    in_states: List[Optional[AbstractCacheState]] = [None] * n
    out_states: List[Optional[AbstractCacheState]] = [None] * n
    back_by_target: Dict[int, List[int]] = {}
    for src, dst in acfg.back_edges:
        back_by_target.setdefault(dst, []).append(src)

    domain = type(initial)
    join_op = domain.join
    update_op = domain.update
    unknown_op = domain.unknown_access

    # Per-rid access plan: None for no accesses, else a tuple of ops —
    # each op a memory-block id or :data:`UNKNOWN_ACCESS`.  The default
    # plan is the instruction-fetch stream (own block, then a prefetch's
    # target); the data-cache extension passes its own plan.  Locked
    # blocks live in pinned ways and never touch the LRU state.
    locked = locked_blocks or frozenset()
    if plan is None:
        plan = [None] * n
        for rid in acfg.ref_rids:
            ops = []
            own = acfg.block_of(rid)
            if own not in locked:
                ops.append(own)
            target = acfg.target_block_or_none(rid)
            if target is not None and target not in locked:
                ops.append(target)
            if ops:
                plan[rid] = tuple(ops)
    elif len(plan) != n:
        raise AnalysisError(
            f"custom plan has {len(plan)} entries, ACFG has {n} vertices"
        )

    preds = [acfg.predecessors(rid) for rid in range(n)]
    source = acfg.source
    back_src_changed: Dict[int, bool] = {}

    for pass_count in range(1, MAX_FIXPOINT_PASSES + 1):
        changed = [False] * n
        any_changed = False
        first_pass = pass_count == 1
        for rid in range(n):
            if not first_pass:
                need = any(changed[p] for p in preds[rid]) or any(
                    back_src_changed.get(src, False)
                    for src in back_by_target.get(rid, ())
                )
                if not need:
                    continue
            if rid == source:
                new_in: Optional[AbstractCacheState] = initial
            else:
                contributions = [
                    out_states[p] for p in preds[rid] if out_states[p] is not None
                ]
                for src in back_by_target.get(rid, ()):
                    if out_states[src] is not None:
                        contributions.append(out_states[src])
                if not contributions:
                    continue  # unreachable this pass (back edge pending)
                new_in = contributions[0]
                for extra in contributions[1:]:
                    new_in = join_op(new_in, extra)
            access = plan[rid]
            if access is None:
                new_out = new_in
            else:
                new_out = new_in
                for op in access:
                    if op == UNKNOWN_ACCESS:
                        new_out = unknown_op(new_out)
                    elif type(op) is tuple and op[0] == MAYBE_ACCESS:
                        new_out = join_op(update_op(new_out, op[1]), new_out)
                    else:
                        new_out = update_op(new_out, op)
            if new_out != out_states[rid]:
                changed[rid] = True
                any_changed = True
                out_states[rid] = new_out
            if new_in != in_states[rid]:
                any_changed = True
                in_states[rid] = new_in
        back_src_changed = {
            src: changed[src] for src, _ in acfg.back_edges
        }
        if not any_changed:
            return DataflowResult(in_states, out_states, pass_count)
    raise AnalysisError(
        f"abstract interpretation did not converge within "
        f"{MAX_FIXPOINT_PASSES} passes"
    )


@dataclass
class CacheAnalysis:
    """Bundled must(+may) results with per-reference classifications.

    Attributes:
        config: Cache configuration analysed.
        classifications: Per-rid classification (``None`` for non-REF
            vertices).
        must: Must-domain dataflow result.
        may: May-domain dataflow result, or ``None`` when the analysis
            ran in must-only mode (the optimizer's hot loop: for WCET
            timing, always-miss and not-classified are both charged the
            miss latency, so the may domain adds nothing).
    """

    config: CacheConfig
    classifications: List[Optional[Classification]]
    must: DataflowResult
    may: Optional[DataflowResult]
    persistence: Optional[DataflowResult] = None
    #: Must-domain result of the second-level cache (multi-level
    #: hierarchies only): the L2 access stream is the L1 access stream
    #: filtered by the L1 classification — always-hit references never
    #: reach L2, everything else arrives as a maybe-access.
    l2_must: Optional[DataflowResult] = None
    #: Rids of references that miss L1 (statically) but are proven to
    #: hit L2: WCET charges them the L2 service time, not the DRAM one.
    l2_hits: Optional[frozenset] = None

    def classification(self, rid: int) -> Classification:
        """Classification of a REF vertex (raises for non-REF)."""
        result = self.classifications[rid]
        if result is None:
            raise AnalysisError(f"vertex {rid} is not a reference")
        return result

    def count(self, kind: Classification) -> int:
        """Number of references with the given classification."""
        return sum(1 for c in self.classifications if c is kind)

    def hit_ratio_static(self) -> float:
        """Fraction of references provably hitting (static, unweighted)."""
        refs = sum(1 for c in self.classifications if c is not None)
        if refs == 0:
            return 0.0
        return self.count(Classification.ALWAYS_HIT) / refs


def analyze_cache(
    acfg: ACFG,
    config: CacheConfig,
    with_may: bool = True,
    with_persistence: bool = True,
    locked_blocks: Optional[frozenset] = None,
) -> CacheAnalysis:
    """Classify every reference of ``acfg`` under ``config``.

    The python oracle, always cold; the dense kernel runs only inside
    :class:`~repro.analysis.pipeline.AnalysisPipeline`.

    The cache starts all-invalid (``ĉ_I``), matching the paper's setup
    where each program fully owns the instruction cache.

    Classification precedence per reference: ``ALWAYS_HIT`` (must) >
    ``PERSISTENT`` (first-miss) > ``ALWAYS_MISS`` (may) >
    ``NOT_CLASSIFIED``.

    Only the L1 is classified; :func:`~repro.analysis.wcet.analyze_wcet`
    composes refinement and a second level on top.

    Args:
        acfg: The program's ACFG.
        config: Cache configuration.
        with_may: Run the may analysis (distinguishes always-miss from
            not-classified; irrelevant for the WCET bound).
        with_persistence: Run the persistence analysis (tightens the
            bound for blocks first touched under conditionals).
        locked_blocks: For the hybrid locking+prefetching scheme
            ([16]/[2], the paper's planned extension): blocks pinned in
            locked ways.  References to them classify ``ALWAYS_HIT`` and
            their accesses do not disturb the LRU state of the unlocked
            ways, which ``config`` then describes (use the reduced-way
            residual configuration).
    """
    if config.block_size != acfg.block_size:
        raise AnalysisError(
            f"ACFG was built for block size {acfg.block_size}, "
            f"cache uses {config.block_size}"
        )
    must = propagate(acfg, config, MustState(config), locked_blocks)
    may = (
        propagate(acfg, config, MayState(config), locked_blocks)
        if with_may
        else None
    )
    persistence = (
        propagate(acfg, config, PersistenceState(config), locked_blocks)
        if with_persistence
        else None
    )
    classifications = classify_references(
        acfg, must, may, persistence, locked_blocks
    )
    return CacheAnalysis(config, classifications, must, may, persistence)


def classify_references(
    acfg: ACFG,
    must: DataflowResult,
    may: Optional[DataflowResult],
    persistence: Optional[DataflowResult],
    locked_blocks: Optional[frozenset] = None,
) -> List[Optional[Classification]]:
    """Per-rid classifications from converged dataflow results.

    The pure classification step of :func:`analyze_cache`, and the
    oracle of the pipeline's dense classifier
    (:func:`repro.cache.kernel.classify_references_dense`).
    """
    classifications: List[Optional[Classification]] = [None] * len(acfg)
    locked = locked_blocks or frozenset()
    for rid in acfg.ref_rids:
        block = acfg.block_of(rid)
        must_in = must.in_states[rid]
        may_in = may.in_states[rid] if may is not None else None
        pers_in = persistence.in_states[rid] if persistence is not None else None
        # Layered overwrite in :data:`CLASSIFICATION_LAYERS` order,
        # weakest claim first — the same ``NC < AM < PS < AH`` code
        # table the dense kernel precompiles, so both classifiers (and
        # any later refinement promotion) agree on precedence.
        label = Classification.NOT_CLASSIFIED
        if may is not None and (may_in is None or block not in may_in):
            # Absent from the may in-state, or never reached by the may
            # analysis at all (dead under the given bounds — it
            # contributes nothing either way): cannot hit.
            label = Classification.ALWAYS_MISS
        if pers_in is not None and pers_in.is_persistent(block):
            label = Classification.PERSISTENT
        if block in locked or (must_in is not None and block in must_in):
            label = Classification.ALWAYS_HIT
        classifications[rid] = label
    return classifications


# ----------------------------------------------------------------------
# second-level (L2) analysis — Hardy & Puaut per-level filtering
# ----------------------------------------------------------------------
def l2_access_plan(
    acfg: ACFG,
    classifications: Sequence[Optional[Classification]],
    locked_blocks: Optional[frozenset] = None,
    may: Optional[DataflowResult] = None,
) -> List[Optional[tuple]]:
    """The L2 access plan induced by the L1 classification.

    Hardy & Puaut's cache-access classification, per reference:

    * L1 ``ALWAYS_HIT`` — *never* reaches L2: no op;
    * definite L1 miss — reaches L2 on *every* execution: a definite
      update.  A reference definitely misses when its block is absent
      from the L1 may in-state (Hardy & Puaut's *Always* CAC).  This
      is decided from the may domain directly, not from the final
      classification label: persistence precedence can stamp a
      first-ever (hence definitely missing) reference ``PERSISTENT``,
      and losing its definite L2 fill would empty the must state at
      every loop head — definite accesses are the only op that grows
      the L2 must state (a maybe-access joins with the untouched state
      and therefore never adds blocks).  This is also why a second
      level implies the may analysis (see
      :func:`~repro.analysis.wcet.analyze_wcet`);
    * anything else — *uncertain*: a :data:`MAYBE_ACCESS`.

    A prefetch's target transfer reaches L2 exactly when the target
    missed L1, which is not statically known, so it is a maybe-access
    too.  Locked blocks are pinned in L1 and never reach L2.
    """
    locked = locked_blocks or frozenset()
    plan: List[Optional[tuple]] = [None] * len(acfg)
    for rid in acfg.ref_rids:
        ops = []
        own = acfg.block_of(rid)
        classification = classifications[rid]
        if own not in locked and not (
            classification is not None and classification.is_always_hit
        ):
            may_in = may.in_states[rid] if may is not None else None
            if classification is Classification.ALWAYS_MISS or (
                may_in is not None and own not in may_in
            ):
                ops.append(own)
            else:
                ops.append((MAYBE_ACCESS, own))
        target = acfg.target_block_or_none(rid)
        if target is not None and target not in locked:
            ops.append((MAYBE_ACCESS, target))
        if ops:
            plan[rid] = tuple(ops)
    return plan


def analyze_l2_must(
    acfg: ACFG,
    l2_config: CacheConfig,
    classifications: Sequence[Optional[Classification]],
    locked_blocks: Optional[frozenset] = None,
    may: Optional[DataflowResult] = None,
) -> DataflowResult:
    """Run the must domain of the second-level cache to fixpoint.

    The python :func:`propagate` over :func:`l2_access_plan`, always
    cold: the L2 stage of :func:`~repro.analysis.wcet.analyze_wcet`
    and the oracle of the dense L2 pass (:func:`repro.cache.kernel.l2_schedule`), which replays the
    same plan on the L1 schedule's chains.
    """
    plan = l2_access_plan(acfg, classifications, locked_blocks, may=may)
    return propagate(
        acfg,
        l2_config,
        MustState(l2_config),
        locked_blocks=None,  # locked blocks are already filtered out
        plan=plan,
    )


def l2_guaranteed_hits(
    acfg: ACFG,
    classifications: Sequence[Optional[Classification]],
    l2_must: DataflowResult,
) -> frozenset:
    """Rids charged the L2 (not DRAM) service time on an L1 miss.

    A reference qualifies when it is not an L1 static hit but its block
    is in the L2 must in-state: on every path it either hits L1 or is
    served by L2, so the L2 time bounds the worst case.
    """
    hits = set()
    for rid in acfg.ref_rids:
        classification = classifications[rid]
        if classification is None or classification.is_hit:
            continue
        must_in = l2_must.in_states[rid]
        if must_in is not None and acfg.block_of(rid) in must_in:
            hits.add(rid)
    return frozenset(hits)
