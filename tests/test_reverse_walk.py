"""Algorithm 3's reverse walk on per-set LRU stacks == the MustState walk.

:func:`repro.core.update.collect_reverse_events` keeps its reverse state
as a tuple of per-set block tuples (most recent first) and reads the
ACFG's flat per-rid arrays.  The walk never joins states, so that
concrete LRU stack is exact.  The walk it replaced — one immutable
:class:`~repro.cache.abstract.MustState` per vertex, updated through
``update``/``evicted_by`` — is kept below verbatim as the oracle, and
every test requires the two event lists to be equal element for element:
on Mälardalen programs under direct-mapped, 2-way and 4-way configs (with
and without persistence), with locked blocks (``optimize_with_locking``),
on generated programs including thrashing loops with wrapped events,
pass by pass inside ``optimize``, and in a ``slow`` hypothesis sweep.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.slack import rest_instance_spans
from repro.analysis.structural import PathSolution
from repro.analysis.wcet import analyze_wcet
from repro.bench.generator import (
    branch_chain,
    loop_nest,
    random_program,
    state_machine,
)
from repro.bench.registry import load
from repro.cache.abstract import MustState
from repro.cache.config import TABLE2, CacheConfig
from repro.core import optimizer
from repro.core.optimizer import OptimizerOptions, optimize
from repro.core.update import PrefetchCandidateEvent, collect_reverse_events
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.errors import OptimizationError
from repro.program.acfg import ACFG, build_acfg
from repro.program.builder import ProgramBuilder
from repro.sim.locking import optimize_with_locking


# ----------------------------------------------------------------------
# The oracle: the MustState walk, verbatim.
# ----------------------------------------------------------------------
def _reverse_update(
    state: MustState, acfg: ACFG, rid: int, locked: frozenset
) -> Tuple[MustState, List[int]]:
    """Process one vertex of the *reverse* stream.

    A forward vertex touches ``own_block`` then (for a prefetch) its
    target; the reverse stream therefore applies the target first.
    Blocks pinned in locked ways never enter the working set.
    Returns the new state and the blocks dropped from the working set.
    """
    instr = acfg.instr[rid]
    if instr is None:
        return state, []
    dropped: List[int] = []
    if instr.is_prefetch:
        target = acfg.target_block_or_none(rid)
        if target is not None and target not in locked:
            dropped.extend(sorted(state.evicted_by(target)))
            state = state.update(target)
    own_block = acfg.block_of(rid)
    if own_block not in locked:
        dropped.extend(sorted(state.evicted_by(own_block)))
        state = state.update(own_block)
    return state, dropped


def oracle_reverse_events(
    acfg: ACFG,
    config: CacheConfig,
    solution: PathSolution,
    locked_blocks: Optional[frozenset] = None,
) -> List[PrefetchCandidateEvent]:
    """Algorithm 3's reverse walk: find every prefetch-candidate point.

    Visits vertices sink→source maintaining the next-use working set;
    at branch vertices (several forward successors) the state of the
    WCET-path successor is kept — the reverse counterpart of ``J_SE``.
    Each loop REST instance additionally gets one virtual extra reverse
    pass over its body to expose loop-carried reuse.

    Returns:
        Candidate events in detection (reverse-execution) order.
    """
    n = len(acfg)
    locked = locked_blocks or frozenset()
    rev_states: List[Optional[MustState]] = [None] * n
    events: List[PrefetchCandidateEvent] = []
    rest_spans = _rest_instance_spans(acfg)

    for rid in reversed(range(n)):
        if rid == acfg.sink:
            incoming: MustState = MustState(config)
        else:
            succs = acfg.successors(rid)
            if not succs:
                raise OptimizationError(f"vertex {rid} has no successors")
            chosen = _pick_reverse_successor(acfg, solution, succs)
            picked = rev_states[chosen]
            if picked is None:
                raise OptimizationError(
                    f"vertex {rid}: successor {chosen} not yet processed"
                )
            incoming = picked
        state, dropped = _reverse_update(incoming, acfg, rid, locked)
        rev_states[rid] = state
        for block in dropped:
            events.append(PrefetchCandidateEvent(rid, block))
        if rid in rest_spans:
            # Virtual second iteration of this REST instance: replay the
            # body in reverse from the accumulated state so that blocks
            # competing across the back edge surface as candidates.
            last_rid = rest_spans[rid]
            wrap_state = state
            for wrap_rid in range(last_rid, rid, -1):
                if acfg.instr[wrap_rid] is None:
                    continue
                if solution.n_w[wrap_rid] == 0:
                    continue
                wrap_state, wrap_dropped = _reverse_update(
                    wrap_state, acfg, wrap_rid, locked
                )
                for block in wrap_dropped:
                    events.append(
                        PrefetchCandidateEvent(
                            wrap_rid, block, wrapped=True, loop_join_rid=rid
                        )
                    )

    # Blocks surviving to the source never lose the working-set
    # competition: their first use misses only because the cache starts
    # invalid.  Each is a candidate for a start-of-program prefetch (a
    # cold-miss preclusion), anchored at the source pole.
    residual = rev_states[acfg.source]
    if residual is not None:
        ordered = sorted(
            residual.blocks(), key=lambda blk: (residual.age_of(blk), blk)
        )
        for block in ordered:
            events.append(PrefetchCandidateEvent(acfg.source, block))
    return events


def _pick_reverse_successor(acfg: ACFG, solution: PathSolution, succs) -> int:
    """Reverse ``J_SE``: prefer the forward successor on the WCET path."""
    on_path = [s for s in succs if solution.on_path[s]]
    if on_path:
        return min(on_path)
    return min(succs, key=lambda s: (-acfg.multiplier[s], s))


def _rest_instance_spans(acfg: ACFG) -> dict:
    """REST entry join rid -> last rid of the instance's body."""
    spans: dict = {}
    for src, dst in acfg.back_edges:
        spans[dst] = max(spans.get(dst, dst), src)
    return spans


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
TECH = technology("45nm")


def timing_for(config: CacheConfig):
    return cacti_model(config, TECH).timing_model()


def assert_same_events(acfg, config, solution, locked_blocks=None):
    """The stack walk equals the oracle, with and without cached spans."""
    expected = oracle_reverse_events(acfg, config, solution, locked_blocks)
    got = collect_reverse_events(acfg, config, solution, locked_blocks)
    assert got == expected
    cached = collect_reverse_events(
        acfg, config, solution, locked_blocks,
        loop_spans=rest_instance_spans(acfg),
    )
    assert cached == expected
    return expected


def check_program(cfg, config, with_persistence=True, locked_blocks=None):
    acfg = build_acfg(cfg, config.block_size)
    wcet = analyze_wcet(
        acfg, config, timing_for(config), with_may=False,
        with_persistence=with_persistence, locked_blocks=locked_blocks,
    )
    return acfg, assert_same_events(acfg, config, wcet.solution, locked_blocks)


class OracleCheckingWalk:
    """Stands in for ``collect_reverse_events``: compares every call
    with the oracle and counts the calls."""

    def __init__(self):
        self.calls = 0
        self.locked_calls = 0
        self.wrapped_events = 0

    def __call__(self, acfg, config, solution, locked_blocks=None,
                 loop_spans=None):
        got = collect_reverse_events(
            acfg, config, solution, locked_blocks, loop_spans
        )
        expected = oracle_reverse_events(acfg, config, solution, locked_blocks)
        assert got == expected, f"pass {self.calls}: walks differ"
        self.calls += 1
        self.locked_calls += bool(locked_blocks)
        self.wrapped_events += sum(e.wrapped for e in got)
        return got


@pytest.fixture
def checking_walk(monkeypatch):
    walk = OracleCheckingWalk()
    monkeypatch.setattr(optimizer, "collect_reverse_events", walk)
    return walk


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestMalardalen:
    @pytest.mark.parametrize("config_id", ["k1", "k8", "k9"])
    @pytest.mark.parametrize("program", ["fdct", "ndes", "adpcm"])
    def test_equal_to_oracle(self, program, config_id):
        config = TABLE2[config_id]
        _, events = check_program(load(program), config)
        assert any(e.insert_after_rid != 0 for e in events)

    @pytest.mark.parametrize("config_id", ["k1", "k3"])
    def test_without_persistence(self, config_id):
        check_program(load("ndes"), TABLE2[config_id], with_persistence=False)

    def test_locked_blocks_never_enter_the_stacks(self):
        config = TABLE2["k3"]
        cfg = load("fdct")
        acfg = build_acfg(cfg, config.block_size)
        locked = frozenset(acfg.block_of(rid) for rid in acfg.ref_rids[::3])
        _, events = check_program(cfg, config, locked_blocks=locked)
        assert events
        assert not {e.dropped_block for e in events} & locked


class TestGenerated:
    @pytest.mark.parametrize("seed", [1, 7, 23, 64, 99])
    @pytest.mark.parametrize("config_id", ["k1", "k5", "k9"])
    def test_random_programs(self, seed, config_id):
        check_program(random_program(seed, target_size=150), TABLE2[config_id])

    @pytest.mark.parametrize("config_id", ["k1", "k2", "k3"])
    def test_generator_shapes(self, config_id):
        b = ProgramBuilder("shapes")
        loop_nest(b, [3, 8], body_size=150, pre_size=4, post_size=4)
        state_machine(b, states=5, handler_size=20, steps_bound=6, varying=6)
        branch_chain(b, count=4, then_size=12, else_size=30)
        _, events = check_program(b.build(), TABLE2[config_id])
        assert any(e.wrapped for e in events)

    def test_thrash_loop_wraps(self, thrash_program, tiny_cache):
        _, events = check_program(thrash_program, tiny_cache)
        wrapped = [e for e in events if e.wrapped]
        assert wrapped
        assert all(e.loop_join_rid > 0 for e in wrapped)

    def test_nested_loops(self, nested_program, small_cache, tiny_cache):
        for config in (small_cache, tiny_cache):
            check_program(nested_program, config)

    def test_residual_order_is_age_then_block(self, loop_program):
        config = CacheConfig(4, 16, 128)  # two 4-way sets
        _, events = check_program(loop_program, config)
        residual = [e.dropped_block for e in events if e.insert_after_rid == 0]
        assert len(residual) > config.num_sets  # several ages per set


class TestInsideOptimize:
    @pytest.mark.parametrize("program", ["fdct", "ndes"])
    def test_every_pass(self, checking_walk, program):
        config = TABLE2["k1"]
        optimize(load(program), config, timing_for(config),
                 options=OptimizerOptions(max_evaluations=40))
        assert checking_walk.calls > 1

    def test_thrash_passes_wrap(self, checking_walk, thrash_program, tiny_cache):
        optimize(thrash_program, tiny_cache, timing_for(tiny_cache),
                 options=OptimizerOptions(max_evaluations=30))
        assert checking_walk.calls > 1
        assert checking_walk.wrapped_events > 0

    @pytest.mark.parametrize("config_id", ["k3", "k9", "k15"])
    def test_optimize_with_locking(self, checking_walk, config_id):
        config = TABLE2[config_id]
        locked, _, _, _ = optimize_with_locking(
            load("fdct"), config, timing_for(config),
            options=OptimizerOptions(max_evaluations=25),
        )
        assert locked
        assert checking_walk.calls == checking_walk.locked_calls > 0


class TestErrors:
    def test_missing_successor_state(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing_for(tiny_cache))
        broken = list(acfg._succ)
        broken[1] = ()
        acfg._succ = broken
        for walk in (collect_reverse_events, oracle_reverse_events):
            with pytest.raises(OptimizationError, match="no successors"):
                walk(acfg, tiny_cache, wcet.solution)


@pytest.mark.slow
class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=20, max_value=220),
        config_id=st.sampled_from(sorted(TABLE2)),
        persistence=st.booleans(),
        lock_share=st.sampled_from([0.0, 0.1, 0.3]),
    )
    def test_equal_to_oracle(self, seed, size, config_id, persistence,
                             lock_share):
        config = TABLE2[config_id]
        cfg = random_program(seed, target_size=size)
        acfg = build_acfg(cfg, config.block_size)
        blocks = sorted({acfg.block_of(rid) for rid in acfg.ref_rids})
        rng = random.Random(seed)
        locked = frozenset(b for b in blocks if rng.random() < lock_share)
        check_program(cfg, config, with_persistence=persistence,
                      locked_blocks=locked or None)
