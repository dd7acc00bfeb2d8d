"""The prefetching update function ``Û_e`` (Algorithm 1, Figure 1).

Two walks implement the paper's novel static analysis:

**Reverse analysis** (:func:`collect_reverse_events`) — Algorithm 3's
core.  Visiting references from sink to source while applying the LRU
update turns the abstract state into a *next-use working set*: the
blocks of each cache set that will be referenced soonest, ordered by
how soon.  When visiting ``r_i`` pushes a block ``s'`` out of that set
(Property 3 applied to successive reverse states), the program point
``(r_i, r_{i+1})`` is the **earliest point from which a prefetched
``s'`` is guaranteed to survive until its next use** — go any earlier
and ``r_i`` itself is one competitor too many for the set's
associativity.  Earliest-survivable maximises the slack available to
hide the prefetch latency Λ, which is exactly why the paper walks the
program backwards.  The walk never joins states (at a branch it keeps
the chosen successor's), so its state is a concrete LRU cache: per set,
a tuple of at most ``associativity`` blocks, most recent first, never
mutated and shared by the predecessors that pick the same successor.

Loop ``REST`` instances get a *virtual second pass*: after the main
walk leaves a REST entry join, the instance's body is replayed once
more in reverse from the accumulated state, so loop-carried reuse (the
dominant conflict-miss pattern) produces wrap-around candidates.

**Forward replay** (:func:`collect_optimization_states`) — the forward
state evolution along the WCET path with ``J_SE`` joins
(:mod:`repro.core.join`), matching the states displayed in the paper's
Figure 1/2 walkthrough; used by tests, examples, and diagnostics.

A software prefetch vertex updates the state twice (its own fetch and
the block it loads) in both directions, which realises Algorithm 1's
recursive self-application (line 9: an inserted prefetch is itself
visited and may spawn further candidates on the next pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.slack import rest_instance_spans
from repro.analysis.structural import PathSolution
from repro.cache.abstract import MustState
from repro.cache.config import CacheConfig
from repro.core.join import select_join_predecessor
from repro.errors import OptimizationError
from repro.program.acfg import ACFG


@dataclass(frozen=True)
class EvictionEvent:
    """A replacement detected by Property 3 (forward replay)."""

    evictor_rid: int
    evicted_block: int
    by_prefetch_fill: bool = False


@dataclass(frozen=True)
class PrefetchCandidateEvent:
    """A working-set drop found by the reverse analysis.

    Attributes:
        insert_after_rid: The visited reference ``r_i``; the prefetch
            goes at program point ``(r_i, r_{i+1})`` — the earliest
            survivable insertion point for the dropped block.
        dropped_block: The memory block that left the next-use working
            set (it *will* be referenced downstream — blocks only enter
            the reverse state by being referenced).
        wrapped: True when found during a REST instance's virtual second
            pass, i.e. the reuse is loop-carried (next iteration).
        loop_join_rid: For wrapped events, the REST entry join of the
            instance; ``-1`` otherwise.
    """

    insert_after_rid: int
    dropped_block: int
    wrapped: bool = False
    loop_join_rid: int = -1


def apply_update(
    state: MustState, acfg: ACFG, rid: int
) -> Tuple[MustState, List[EvictionEvent]]:
    """Update the optimization state through one vertex.

    Returns:
        The out-state and the replacements the access caused.
    """
    instr = acfg.instr[rid]
    if instr is None:
        return state, []
    events: List[EvictionEvent] = []
    own_block = acfg.block_of(rid)
    for evicted in sorted(state.evicted_by(own_block)):
        events.append(EvictionEvent(rid, evicted, by_prefetch_fill=False))
    state = state.update(own_block)
    if instr.is_prefetch:
        target = acfg.target_block_or_none(rid)
        if target is not None:
            for evicted in sorted(state.evicted_by(target)):
                events.append(
                    EvictionEvent(rid, evicted, by_prefetch_fill=True)
                )
            state = state.update(target)
    return state, events


#: The reverse walk's state: per cache set, the blocks of the next-use
#: working set, most recently visited first (at most ``associativity``).
LruStacks = Tuple[Tuple[int, ...], ...]


def collect_reverse_events(
    acfg: ACFG,
    config: CacheConfig,
    solution: PathSolution,
    locked_blocks: Optional[frozenset] = None,
    loop_spans: Optional[Sequence[Tuple[int, int, Tuple[int, ...]]]] = None,
) -> List[PrefetchCandidateEvent]:
    """Algorithm 3's reverse walk: find every prefetch-candidate point.

    Visits vertices sink→source maintaining the next-use working set;
    at branch vertices (several forward successors) the state of the
    WCET-path successor is kept — the reverse counterpart of ``J_SE``.
    Each loop REST instance additionally gets one virtual extra reverse
    pass over its body to expose loop-carried reuse.  ``loop_spans``
    are the ACFG's :func:`~repro.analysis.slack.rest_instance_spans`
    when the caller has them cached.

    Returns:
        Candidate events in detection (reverse-execution) order.
    """
    num_sets = config.num_sets
    assoc = config.associativity
    locked = locked_blocks or frozenset()
    ref_block = acfg._ref_block
    target_block = acfg._target_block
    succ = acfg.successor_table()
    n_w = solution.n_w
    if loop_spans is None:
        loop_spans = rest_instance_spans(acfg)
    wrap_last = {join: last for join, last, _ in loop_spans}
    rev_states: List[Optional[LruStacks]] = [None] * len(ref_block)
    events: List[PrefetchCandidateEvent] = []

    def visit(state: LruStacks, rid: int, join: int = -1) -> LruStacks:
        # A forward vertex touches its own block, then (for a prefetch)
        # its target; the reverse stream applies the target first.
        # Blocks pinned in locked ways never enter the working set.
        for block in (target_block[rid], ref_block[rid]):
            if block is None or block in locked:
                continue
            index = block % num_sets
            stack = state[index]
            if block in stack:
                if stack[0] == block:
                    continue
                pos = stack.index(block)
                stack = (block,) + stack[:pos] + stack[pos + 1:]
            elif len(stack) < assoc:
                stack = (block,) + stack
            else:
                events.append(
                    PrefetchCandidateEvent(rid, stack[-1], join >= 0, join)
                )
                stack = (block,) + stack[:-1]
            state = state[:index] + (stack,) + state[index + 1:]
        return state

    for rid in range(len(ref_block) - 1, -1, -1):
        if rid == acfg.sink:
            state: LruStacks = ((),) * num_sets
        else:
            succs = succ[rid]
            if not succs:
                raise OptimizationError(f"vertex {rid} has no successors")
            chosen = succs[0] if len(succs) == 1 else _pick_reverse_successor(
                acfg, solution, succs)
            picked = rev_states[chosen]
            if picked is None:
                raise OptimizationError(
                    f"vertex {rid}: successor {chosen} not yet processed"
                )
            state = picked
        if ref_block[rid] is not None:
            state = visit(state, rid)
        rev_states[rid] = state
        last_rid = wrap_last.get(rid)
        if last_rid is not None:
            # Virtual second iteration of this REST instance: replay the
            # body in reverse from the accumulated state so that blocks
            # competing across the back edge surface as candidates.
            for wrap_rid in range(last_rid, rid, -1):
                if ref_block[wrap_rid] is not None and n_w[wrap_rid] != 0:
                    state = visit(state, wrap_rid, rid)

    # Blocks surviving to the source never lose the working-set
    # competition: their first use misses only because the cache starts
    # invalid.  Each is a candidate for a start-of-program prefetch (a
    # cold-miss preclusion), anchored at the source pole.
    residual = rev_states[acfg.source]
    if residual is not None:
        ordered = sorted((age, block) for stack in residual
                         for age, block in enumerate(stack))
        for _, block in ordered:
            events.append(PrefetchCandidateEvent(acfg.source, block))
    return events


def _pick_reverse_successor(acfg: ACFG, solution: PathSolution, succs) -> int:
    """Reverse ``J_SE``: prefer the forward successor on the WCET path."""
    on_path = [s for s in succs if solution.on_path[s]]
    if on_path:
        return min(on_path)
    return min(succs, key=lambda s: (-acfg.multiplier[s], s))


def collect_optimization_states(
    acfg: ACFG,
    config: CacheConfig,
    solution: PathSolution,
) -> Tuple[List[Optional[MustState]], List[EvictionEvent]]:
    """Forward walk of the whole ACFG with ``Û_e``/``J_SE`` semantics.

    Args:
        acfg: The program's ACFG.
        config: Cache configuration.
        solution: WCET path solution driving the ``J_SE`` joins.

    Returns:
        ``(in_states, events)`` — the optimization in-state per vertex
        (the state *before* the vertex's own accesses) and every
        replacement event, in topological (execution) order.  Iterating
        ``reversed(events)`` yields Algorithm 3's reverse visiting order.
    """
    n = len(acfg)
    in_states: List[Optional[MustState]] = [None] * n
    out_states: List[Optional[MustState]] = [None] * n
    events: List[EvictionEvent] = []
    for rid in range(n):
        if rid == acfg.source:
            in_state: MustState = MustState(config)
        elif acfg.is_join(rid):
            chosen = select_join_predecessor(acfg, solution, rid)
            picked = out_states[chosen]
            if picked is None:
                raise OptimizationError(
                    f"JOIN {rid}: predecessor {chosen} has no state"
                )
            in_state = picked
        else:
            preds = acfg.predecessors(rid)
            if len(preds) != 1:
                raise OptimizationError(
                    f"REF/SINK vertex {rid} expected one predecessor, "
                    f"got {len(preds)}"
                )
            picked = out_states[preds[0]]
            if picked is None:
                raise OptimizationError(f"vertex {rid}: predecessor state missing")
            in_state = picked
        in_states[rid] = in_state
        out_state, vertex_events = apply_update(in_state, acfg, rid)
        out_states[rid] = out_state
        events.extend(vertex_events)
    return in_states, events
