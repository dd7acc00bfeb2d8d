"""Tests for the optimizer's update/join machinery (Û_e, J_SE) and the
reverse analysis."""

from __future__ import annotations

import pytest

from repro.analysis.wcet import analyze_wcet
from repro.cache.abstract import MustState
from repro.core.join import select_join_predecessor
from repro.core.update import (
    apply_update,
    collect_optimization_states,
    collect_reverse_events,
)
from repro.errors import OptimizationError
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder


class TestApplyUpdate:
    def test_records_replacement(self, thrash_program, tiny_cache):
        acfg = build_acfg(thrash_program, block_size=tiny_cache.block_size)
        # drive a state to conflict: blocks b, b+16 share a set
        state = MustState(tiny_cache)
        victim = None
        events_seen = []
        for rid in acfg.ref_rids:
            state, events = apply_update(state, acfg, rid)
            events_seen.extend(events)
        assert events_seen  # the 640 B body must overflow 256 B
        for event in events_seen:
            assert event.evictor_rid >= 0

    def test_join_vertex_is_identity(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        state = MustState(tiny_cache).update(3)
        join = next(rid for rid in range(len(acfg)) if acfg.is_join(rid))
        new_state, events = apply_update(state, acfg, join)
        assert new_state == state
        assert events == []


class TestJoinSelection:
    def test_prefers_wcet_path_predecessor(self, timing, tiny_cache):
        b = ProgramBuilder("p")
        with b.if_else() as arms:
            with arms.then_():
                b.code(2)
            with arms.else_():
                b.code(30)  # the WCET arm
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        join = next(rid for rid in range(len(acfg)) if acfg.is_join(rid))
        chosen = select_join_predecessor(acfg, wcet.solution, join)
        assert wcet.solution.on_path[chosen]

    def test_rejects_non_join(self, loop_program, tiny_cache, timing):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        ref = acfg.ref_rids[0]
        with pytest.raises(OptimizationError):
            select_join_predecessor(acfg, wcet.solution, ref)


class TestForwardStates:
    def test_every_vertex_gets_a_state(self, loop_program, tiny_cache, timing):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        states, events = collect_optimization_states(
            acfg, tiny_cache, wcet.solution
        )
        assert all(s is not None for s in states)

    def test_forward_state_matches_wcet_path_replay(
        self, straight_program, tiny_cache, timing
    ):
        """On straight-line code the optimization state IS the concrete
        cache along the single path."""
        acfg = build_acfg(straight_program, block_size=tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        states, _ = collect_optimization_states(acfg, tiny_cache, wcet.solution)
        replay = MustState(tiny_cache)
        for rid in acfg.ref_rids:
            assert states[rid] == replay
            replay = replay.update(acfg.block_of(rid))


class TestReverseAnalysis:
    def test_no_events_when_everything_fits(self, loop_program, big_cache, timing):
        acfg = build_acfg(loop_program, block_size=big_cache.block_size)
        wcet = analyze_wcet(acfg, big_cache, timing)
        events = collect_reverse_events(acfg, big_cache, wcet.solution)
        drops = [e for e in events if e.insert_after_rid != acfg.source]
        assert drops == []  # only cold-miss residual candidates remain

    def test_cold_candidates_cover_all_touched_blocks(
        self, straight_program, big_cache, timing
    ):
        acfg = build_acfg(straight_program, block_size=big_cache.block_size)
        wcet = analyze_wcet(acfg, big_cache, timing)
        events = collect_reverse_events(acfg, big_cache, wcet.solution)
        residual = {e.dropped_block for e in events if e.insert_after_rid == acfg.source}
        touched = {acfg.block_of(rid) for rid in acfg.ref_rids}
        # the cache dwarfs the program: every block survives to the source
        assert residual == touched

    def test_thrash_produces_wrapped_events(self, thrash_program, tiny_cache, timing):
        acfg = build_acfg(thrash_program, block_size=tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        events = collect_reverse_events(acfg, tiny_cache, wcet.solution)
        assert any(e.wrapped for e in events)
        for event in events:
            if event.wrapped:
                assert event.loop_join_rid >= 0

    def test_earliest_survivable_point_semantics(self, tiny_cache, timing):
        """Direct check of the working-set argument: for the classic
        A B C A pattern in a 2-way set, the drop event for A's block
        sits at B — the earliest point from which a prefetched A
        survives (C is the only distinct competitor left)."""
        from repro.cache.config import CacheConfig

        config = CacheConfig(2, 16, 32)  # ONE 2-way set
        b = ProgramBuilder("p")
        b.code(20)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        wcet = analyze_wcet(acfg, config, timing)
        events = collect_reverse_events(acfg, config, wcet.solution)
        # Program blocks: 0,1,2,3,4,5 all map to set 0.  Reverse walk
        # keeps the 2 next-used; drops happen mid-program, not at uses.
        drop_events = [e for e in events if e.insert_after_rid != acfg.source]
        assert drop_events
        for event in drop_events:
            # the dropped block is referenced after the drop point
            uses = [
                rid
                for rid in acfg.ref_rids
                if acfg.block_of(rid) == event.dropped_block
                and rid > event.insert_after_rid
            ]
            assert uses, "reverse analysis only drops blocks with later uses"
