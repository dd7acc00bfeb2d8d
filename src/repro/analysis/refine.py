"""Model-checking refinement of ``NOT_CLASSIFIED`` references.

The must/may abstract interpretation (:mod:`repro.cache.classify`)
leaves a reference ``NOT_CLASSIFIED`` whenever neither domain can prove
it: the joins lose correlations between block ages and paths, and WCET
analysis must then assume a miss on every execution.  Touzeau et al.
("Model Checking of Cache for WCET Analysis Refinement") showed these
uncertain references can be decided *exactly* by a focused search of
the reachable states of the CFG x concrete-cache product: if the block
is cached in every reachable state entering the reference, it is an
always-hit; if in none, an always-miss.

This module implements that refinement over the ACFG, reusing
:class:`repro.cache.concrete.ConcreteCache` — the executable ground
truth the differential test layer already checks the abstract analysis
against — as the transition relation.

Design notes:

* **Per-set decomposition.**  LRU sets are independent: an access
  touches only the set its block maps to, so the joint reachable cache
  states project *exactly* onto per-set reachable line sets, and block
  presence (all classification needs) is a per-set property.  Each
  cache set is therefore explored separately, which keeps the visited
  sets exponentially smaller than the joint product while losing no
  precision.

* **Scope: only undecided sets.**  Promotions are only ever read for
  ``NOT_CLASSIFIED`` references, so callers explore just the sets those
  references map to (:func:`nc_sets`; ``sets=None`` explores every set
  and serves as the test oracle).  The exploration is therefore no
  longer classification-independent: which sets it covers follows the
  classification, while each covered set's fixpoint still depends only
  on the ACFG, the configuration and the locked blocks.

* **Run-level walk.**  Each set is walked over the ACFG's straight-line
  runs (:meth:`~repro.program.acfg.ACFG.run_ends`, cut also at
  back-edge targets), applying only the set's own op vertices inside a
  run — every other vertex is an identity transfer for the set.  A
  worklist revisits only the runs whose head received new lines and
  pushes only those new lines through the run, so a set costs time in
  proportion to its own accesses rather than to the size of the ACFG.

* **State canonicalization.**  A concrete per-set state is canonically
  the MRU-first tuple of cached block ids (exactly
  :meth:`ConcreteCache.set_contents`); the visited sets hash these
  tuples directly.  Transitions are memoized on ``(line, ops)``, shared
  by every set of one exploration.

* **Exploration budget.**  The reachable state space is finite but can
  be exponential in pathological programs.  A budget bounds the number
  of newly-reached ``(vertex, line)`` pairs summed over all sets;
  exploration of a set that would exceed it is abandoned and every
  reference mapping to an unexplored set simply *stays*
  ``NOT_CLASSIFIED`` — the sound fallback (the unrefined classification
  is already sound).  Completed sets are kept: their fixpoints do not
  depend on the abandoned ones.

* **Soundness.**  The exploration runs over the same ACFG (same VIVU
  contexts, same analysis-only back edges, same instruction-fetch
  access plan as :func:`repro.cache.classify.propagate`'s default) that
  the abstract domains use, so its reachable-state collecting semantics
  over-approximates exactly the set of concrete executions Theorem 1
  quantifies over.  ``NC -> AH`` (block present in *all* reachable
  in-states) can only lower per-reference worst-case times;
  ``NC -> AM`` never changes them (both are charged the miss latency);
  and ``NC -> PS`` (block present in *some* in-states and never evicted
  by any reachable transition of its set) replaces per-execution miss
  charges with the hit latency plus the per-block one-time first-miss
  penalty — the block is installed by its first miss and, being
  eviction-free, stays resident, so it misses at most once per run,
  which is exactly what :class:`~repro.cache.classify.Classification`'s
  ``PERSISTENT`` charging assumes.  Hence refined WCET <= unrefined
  WCET, and every promotion agrees with exhaustive concrete simulation
  (enforced by tests/test_refine.py).  ``PS`` promotions are only
  emitted for single-level analyses under the persistence baseline
  (callers gate them via ``persistence=False``).  With a second level
  the one-time penalty is charged at the DRAM rate while the unrefined
  bound may already charge the reference only the L2 service time, so
  the promotion could loosen the bound.  The classic baseline has no
  persistence domain: a promotion there would be the only ``PS`` label,
  priced by the per-block first-miss charge, and on the Mälardalen
  programs that charge let measured ``τ_a`` exceed ``τ_w`` (cover,
  icall, lcdnum and statemate; cover/k25 measured 1818 cycles against
  a 730-cycle bound; ``tests/test_tau_soundness.py``).

* **Warm start.**  Like the abstract fixpoints, a re-analysis may copy
  the per-vertex line sets below a divergence boundary from a base
  exploration — sound under the pipeline's back-edge boundary closure —
  for every set the base explored and completed; other sets run cold.
  The copied prefix is charged to the budget as a cold walk would
  charge it, so a delta re-analysis abandons exactly the sets a cold
  analysis abandons.
  The pipeline additionally verifies that the *applied* prefix
  classifications match the base run before reusing any downstream
  warm-start state (a budget flip may change refinement outcomes
  without changing the prefix equations).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cache.classify import Classification, classification_rank
from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.errors import AnalysisError
from repro.program.acfg import ACFG

#: Default bound on newly-reached ``(vertex, line)`` expansions summed
#: over all cache sets.  Generous for the paper's benchmark sizes;
#: exhaustion is sound (affected references stay ``NOT_CLASSIFIED``).
DEFAULT_BUDGET = 200_000

#: One canonical per-set concrete state: cached block ids, MRU first
#: (the tuple :meth:`ConcreteCache.set_contents` returns).
LineKey = Tuple[int, ...]

#: The visited set of one vertex: every reachable canonical line.
LineSet = FrozenSet[LineKey]


@dataclass
class SetExploration:
    """Converged reachable line sets of one cache set.

    The walk visits straight-line runs, not vertices, so ``in_lines``
    is filled only at the vertices it reads: the set's op vertices
    (exact, with ``None`` meaning no concrete path reaches the vertex,
    as in the abstract domains) and the run heads.  ``out_lines`` holds
    the line sets after each op vertex.  ``plan`` maps each op vertex to
    the op tuple its transitions replayed — kept so
    :func:`refine_classifications` can re-walk every reachable
    transition op by op for the eviction-freedom (persistence) check.
    """

    in_lines: List[Optional[LineSet]]
    out_lines: List[Optional[LineSet]]
    plan: Dict[int, Tuple[Tuple[str, int], ...]] = field(default_factory=dict)


@dataclass
class RefinementResult:
    """Outcome of one bounded concrete-state exploration.

    Each explored set's fixpoint depends only on ``(acfg, config,
    locked_blocks)``, but *which* sets are explored follows the
    classification: callers pass the sets holding a ``NOT_CLASSIFIED``
    reference (:func:`nc_sets`), the only ones
    :func:`refine_classifications` reads.  A result therefore serves
    any classification whose NC sets it completed.

    Attributes:
        config: Cache configuration explored (defines the set mapping).
        per_set: Completed explorations keyed by cache-set index.  Sets
            abandoned on budget exhaustion are absent; references
            mapping to them keep their unrefined classification.
        explored: Newly-reached ``(vertex, line)`` pairs charged against
            the budget, summed over all sets (including abandoned ones).
        exhausted: True when at least one set was abandoned.
    """

    config: CacheConfig
    per_set: Dict[int, SetExploration] = field(default_factory=dict)
    explored: int = 0
    exhausted: bool = False


def nc_sets(
    acfg: ACFG,
    config: CacheConfig,
    classifications: Sequence[Optional[Classification]],
) -> FrozenSet[int]:
    """The cache sets some ``NOT_CLASSIFIED`` reference maps to — the
    only sets whose exploration can promote anything."""
    return frozenset(
        config.set_index(acfg.block_of(rid))
        for rid in acfg.ref_rids
        if classifications[rid] is Classification.NOT_CLASSIFIED
    )


def _transition(
    config: CacheConfig,
    set_index: int,
    line: LineKey,
    ops: Tuple[Tuple[str, int], ...],
    memo: Dict[Tuple[LineKey, tuple], LineKey],
) -> LineKey:
    """Apply one vertex's accesses to one canonical line.

    The concrete cache itself is the transition relation: the line is
    rebuilt in a fresh :class:`ConcreteCache` (installing LRU-first
    reproduces the MRU order exactly) and the vertex's demand accesses
    and prefetch installs are replayed through the public API.
    """
    key = (line, ops)
    cached = memo.get(key)
    if cached is not None:
        return cached
    cache = ConcreteCache(config)
    for block in reversed(line):
        cache.install(block)
    for kind, block in ops:
        if kind == "access":
            cache.access(block)
        else:
            cache.install(block)
    result = cache.set_contents(set_index)
    memo[key] = result
    return result


@dataclass
class _Runs:
    """The ACFG cut into straight-line runs, shared by every set.

    Run ``j`` covers rids ``heads[j] <= r < heads[j + 1]`` (the last one
    ends at ``n``); inside a run each vertex is fed by exactly its rid
    predecessor (:meth:`ACFG.run_ends`), and back-edge targets and the
    warm-start boundary are cut into heads too.  An *exit* is a vertex
    whose line set feeds some head — a forward predecessor or a back-edge
    source; ``exits[j]`` lists the run's exits in rid order, each with
    the runs it feeds.  ``sources[j]`` lists every vertex feeding head
    ``j``.
    """

    heads: List[int]
    exits: List[List[Tuple[int, Tuple[int, ...]]]]
    sources: List[List[int]]

    @classmethod
    def of(cls, acfg: ACFG, boundary: int) -> "_Runs":
        n = len(acfg)
        cuts = [0, boundary] + [dst for _, dst in acfg.back_edges]
        heads = np.union1d(acfg.run_ends(), cuts)
        heads = heads[heads < n].tolist()
        run_of = {head: j for j, head in enumerate(heads)}
        sources: List[List[int]] = [
            list(acfg.predecessors(head)) for head in heads
        ]
        for src, dst in acfg.back_edges:
            sources[run_of[dst]].append(src)
        consumers: Dict[int, List[int]] = {}
        for j, feeding in enumerate(sources):
            for src in feeding:
                fed = consumers.setdefault(src, [])
                if j not in fed:
                    fed.append(j)
        exits: List[List[Tuple[int, Tuple[int, ...]]]] = [
            [] for _ in heads
        ]
        for src in sorted(consumers):
            exits[bisect.bisect_right(heads, src) - 1].append(
                (src, tuple(consumers[src]))
            )
        return cls(heads, exits, sources)


def _explore_set(
    acfg: ACFG,
    config: CacheConfig,
    set_index: int,
    plan: Dict[int, Tuple[Tuple[str, int], ...]],
    runs: _Runs,
    memo: Dict[Tuple[LineKey, tuple], LineKey],
    counters: Dict[str, int],
    warm: Optional[Tuple[int, SetExploration]],
) -> Optional[SetExploration]:
    """Reachable-line fixpoint of one cache set, run by run.

    A worklist of runs (lowest head first, i.e. topological) carries
    only the lines that are *new* at each head: a visit pushes them
    through the run's op vertices for this set — the vertices between
    them are identity transfers — and hands what is still new at each
    exit to the runs it feeds.  A visit whose lines are all known stops
    there, so a set costs time in proportion to its own accesses and
    growth, not to the size of the ACFG.  The join is set union and the
    source enters with the empty (all-invalid) line, as in
    :func:`repro.cache.classify.propagate`.  Every visit grows a visited
    set and the budget caps the growth at op vertices, so the walk
    terminates.

    Returns ``None`` when the budget was exceeded.
    """
    n = len(acfg)
    heads = runs.heads
    in_lines: List[Optional[LineSet]] = [None] * n
    out_lines: List[Optional[LineSet]] = [None] * n
    op_rids = sorted(plan)
    op_starts = np.searchsorted(op_rids, heads).tolist() + [len(op_rids)]
    pending: Dict[int, set] = {}
    frozen = 0  # runs below the warm boundary keep their copied lines
    if warm is None:
        pending[bisect.bisect_right(heads, acfg.source) - 1] = {()}
    else:
        boundary, base = warm
        in_lines[:boundary] = base.in_lines[:boundary]
        out_lines[:boundary] = base.out_lines[:boundary]
        frozen = bisect.bisect_left(heads, boundary)
        # Charge the copied prefix as a cold walk would have, so a warm
        # start exhausts the budget exactly where a cold run does.
        counters["explored"] += sum(
            len(in_lines[rid]) for rid in op_rids[:op_starts[frozen]]
            if in_lines[rid]
        )
        if counters["explored"] > counters["budget"]:
            return None
        for j in range(frozen, len(heads)):
            for src in runs.sources[j]:
                if src >= boundary:
                    continue
                # The copied line set at ``src``: the out-lines of the
                # last op vertex of its run up to ``src``, else the
                # in-lines of the run head.
                run = bisect.bisect_right(heads, src) - 1
                last = bisect.bisect_right(op_rids, src) - 1
                if last >= 0 and op_rids[last] >= heads[run]:
                    lines = out_lines[op_rids[last]]
                else:
                    lines = in_lines[heads[run]]
                if lines:
                    pending.setdefault(j, set()).update(lines)
    events: List[Optional[list]] = [None] * len(heads)
    queue = sorted(pending)
    budget = counters["budget"]
    while queue:
        j = heapq.heappop(queue)
        head = heads[j]
        new = pending.pop(j)
        if j < frozen:
            continue
        old = in_lines[head]
        if old is not None:
            new -= old
            if not new:
                continue
            in_lines[head] = old | new
        else:
            in_lines[head] = frozenset(new)
        steps = events[j]
        if steps is None:
            # The run's op vertices and exits, merged in rid order.
            merged: Dict[int, list] = {
                rid: [plan[rid], None]
                for rid in op_rids[op_starts[j]:op_starts[j + 1]]
            }
            for src, fed in runs.exits[j]:
                merged.setdefault(src, [None, None])[1] = fed
            steps = events[j] = [
                (rid, *merged[rid]) for rid in sorted(merged)
            ]
        for rid, ops, fed in steps:
            if ops is not None:
                # In a run an op vertex's in-lines are its predecessor's
                # out-lines, so ``new`` is new here too.
                if rid != head:
                    old = in_lines[rid]
                    in_lines[rid] = (
                        frozenset(new) if old is None else old | new
                    )
                counters["explored"] += len(new)
                if counters["explored"] > budget:
                    return None
                image = {
                    _transition(config, set_index, line, ops, memo)
                    for line in new
                }
                old = out_lines[rid]
                if old is None:
                    out_lines[rid] = frozenset(image)
                else:
                    image -= old
                    if not image:
                        break
                    out_lines[rid] = old | image
                new = image
            if fed is not None:
                for k in fed:
                    lines = pending.get(k)
                    if lines is None:
                        pending[k] = set(new)
                        heapq.heappush(queue, k)
                    else:
                        lines |= new
    return SetExploration(in_lines, out_lines, plan)


def explore_concrete_states(
    acfg: ACFG,
    config: CacheConfig,
    locked_blocks: Optional[frozenset] = None,
    budget: Optional[int] = None,
    warm: Optional[Tuple[int, "RefinementResult"]] = None,
    sets: Optional[AbstractSet[int]] = None,
) -> RefinementResult:
    """Bounded exploration of the ACFG x concrete-cache product.

    Args:
        acfg: The program's ACFG.
        config: L1 cache configuration (defines the set mapping the
            per-set decomposition uses).
        locked_blocks: Blocks pinned in locked ways; like the abstract
            plan, their accesses never touch the explored LRU state.
        budget: Cap on newly-reached ``(vertex, line)`` pairs across all
            sets (:data:`DEFAULT_BUDGET` when ``None``).
        warm: Optional ``(boundary, base_result)`` warm start: per-set
            line sets of every vertex below ``boundary`` are copied from
            the base exploration.  Only sound when the caller has proven
            the prefix equations unchanged (the pipeline's divergence
            boundary closure); only sets the base explored and
            completed are reused.
        sets: The cache sets to explore (normally :func:`nc_sets`);
            ``None`` explores every set some access touches.

    Returns:
        A :class:`RefinementResult`; on budget exhaustion ``exhausted``
        is set and the abandoned sets are simply absent from
        ``per_set`` (their references keep the unrefined labels).
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    locked = locked_blocks or frozenset()

    # The default instruction-fetch access plan of propagate() — own
    # block, then a prefetch's target — split by the cache set each
    # block maps to.  Ops touching different sets commute, and within a
    # set the plan preserves program order.
    plans: Dict[int, Dict[int, Tuple[Tuple[str, int], ...]]] = {}

    def _add_op(index: int, rid: int, op: Tuple[str, int]) -> None:
        if sets is not None and index not in sets:
            return
        plan = plans.setdefault(index, {})
        plan[rid] = plan.get(rid, ()) + (op,)

    for rid in acfg.ref_rids:
        own = acfg.block_of(rid)
        if own not in locked:
            _add_op(config.set_index(own), rid, ("access", own))
        target = acfg.target_block_or_none(rid)
        if target is not None and target not in locked:
            _add_op(config.set_index(target), rid, ("install", target))

    boundary = 0
    if warm is not None and 0 < warm[0] <= len(acfg):
        boundary = warm[0]
    runs = _Runs.of(acfg, boundary) if plans else None
    memo: Dict[Tuple[LineKey, tuple], LineKey] = {}
    counters = {"explored": 0, "budget": budget}
    result = RefinementResult(config=config)
    for set_index in sorted(plans):
        warm_entry = None
        if boundary:
            base_set = warm[1].per_set.get(set_index)
            if base_set is not None and len(base_set.in_lines) >= boundary:
                warm_entry = (boundary, base_set)
        exploration = _explore_set(
            acfg,
            config,
            set_index,
            plans[set_index],
            runs,
            memo,
            counters,
            warm_entry,
        )
        if exploration is None:
            result.exhausted = True
        else:
            result.per_set[set_index] = exploration
    result.explored = counters["explored"]
    return result


def _evicted_blocks(
    config: CacheConfig, set_index: int, per_set: SetExploration
) -> FrozenSet[int]:
    """Blocks some reachable transition of the set can evict.

    Re-walks every reachable ``(in-line, vertex ops)`` pair op by op —
    a block present before an op and absent after it was evicted by
    that op.  The op granularity matters: a vertex whose access
    installs a block and whose prefetch-install then evicts it again
    would look eviction-free at transition endpoints.
    """
    evicted: set = set()
    memo: Dict[Tuple[LineKey, tuple], FrozenSet[int]] = {}
    for rid, ops in per_set.plan.items():
        lines = per_set.in_lines[rid]
        if not lines:
            continue
        for line in lines:
            key = (line, ops)
            lost = memo.get(key)
            if lost is None:
                cache = ConcreteCache(config)
                for block in reversed(line):
                    cache.install(block)
                previous = frozenset(line)
                losses: set = set()
                for kind, block in ops:
                    if kind == "access":
                        cache.access(block)
                    else:
                        cache.install(block)
                    now = frozenset(cache.set_contents(set_index))
                    losses |= previous - now
                    previous = now
                lost = frozenset(losses)
                memo[key] = lost
            evicted |= lost
    return frozenset(evicted)


def refine_classifications(
    acfg: ACFG,
    exploration: RefinementResult,
    classifications: Sequence[Optional[Classification]],
    persistence: bool = True,
) -> Dict[int, Classification]:
    """Promotions decided by a completed exploration.

    Only ``NOT_CLASSIFIED`` references are considered (the abstract
    labels are already exact for the rest): a block present in *every*
    reachable in-line of its set promotes to ``ALWAYS_HIT``, one
    present in *none* to ``ALWAYS_MISS``, and — when ``persistence``
    is allowed (single-level analyses, see the module soundness note)
    — a block with mixed presence that *no reachable transition of its
    set can evict* promotes to ``PERSISTENT``: its first miss installs
    it for good, so it misses at most once per run, matching the
    layered ``NC < AM < PS < AH`` charging exactly.  References whose
    set was abandoned (budget), or that are concretely unreachable,
    keep the sound ``NOT_CLASSIFIED``.
    """
    config = exploration.config
    promotions: Dict[int, Classification] = {}
    evictions: Dict[int, FrozenSet[int]] = {}
    for rid in acfg.ref_rids:
        if classifications[rid] is not Classification.NOT_CLASSIFIED:
            continue
        block = acfg.block_of(rid)
        set_index = config.set_index(block)
        per_set = exploration.per_set.get(set_index)
        if per_set is None:
            continue
        lines = per_set.in_lines[rid]
        if not lines:
            continue
        present = sum(1 for line in lines if block in line)
        if present == len(lines):
            promotions[rid] = Classification.ALWAYS_HIT
        elif present == 0:
            promotions[rid] = Classification.ALWAYS_MISS
        elif persistence:
            if set_index not in evictions:
                evictions[set_index] = _evicted_blocks(
                    config, set_index, per_set
                )
            if block not in evictions[set_index]:
                promotions[rid] = Classification.PERSISTENT
    return promotions


def apply_promotions(
    classifications: Sequence[Optional[Classification]],
    promotions: Dict[int, Classification],
) -> List[Optional[Classification]]:
    """A new classification list with the promotions applied.

    Promotions may only strengthen: the current label must be
    ``NOT_CLASSIFIED`` and the promoted one must sit strictly higher in
    the layered :data:`repro.cache.classify.CLASSIFICATION_LAYERS`
    order the dense kernel's gather arrays assume.  Model checking can
    conclude ``ALWAYS_HIT``, ``ALWAYS_MISS``, or (for single-level
    analyses) the eviction-freedom form of ``PERSISTENT``.
    """
    refined = list(classifications)
    for rid, label in promotions.items():
        current = refined[rid]
        if current is not Classification.NOT_CLASSIFIED:
            raise AnalysisError(
                f"refinement may only promote NOT_CLASSIFIED references; "
                f"vertex {rid} is {current}"
            )
        if label not in (
            Classification.ALWAYS_HIT,
            Classification.ALWAYS_MISS,
            Classification.PERSISTENT,
        ) or classification_rank(label) <= classification_rank(current):
            raise AnalysisError(
                f"invalid refinement promotion {current} -> {label} "
                f"at vertex {rid}"
            )
        refined[rid] = label
    return refined
