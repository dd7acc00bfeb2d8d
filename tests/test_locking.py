"""Tests for the static cache-locking baseline."""

from __future__ import annotations

import pytest

from repro.analysis.wcet import analyze_wcet
from repro.cache.config import CacheConfig
from repro.errors import SimulationError
from repro.program.acfg import build_acfg
from repro.sim.locking import (
    locked_wcet,
    select_locked_blocks,
    simulate_locked,
)


class TestSelection:
    def test_respects_per_set_capacity(self, thrash_program, tiny_cache):
        acfg = build_acfg(thrash_program, block_size=tiny_cache.block_size)
        locked = select_locked_blocks(acfg, tiny_cache)
        per_set = {}
        for block in locked:
            per_set.setdefault(tiny_cache.set_index(block), []).append(block)
        for blocks in per_set.values():
            assert len(blocks) <= tiny_cache.associativity

    def test_prefers_heavier_blocks(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        weights = {0: 1.0, 16 // 16: 100.0}
        # craft explicit weights: block 1 wins its set over block... use ids present
        locked = select_locked_blocks(acfg, tiny_cache, weights={0: 1.0, 16: 5.0})
        assert 16 in locked  # both map to set 0; heavier one is locked
        assert 0 not in locked

    def test_default_weights_favor_loop_body(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        locked = select_locked_blocks(acfg, tiny_cache)
        # loop-body blocks execute ~10x the entry block; entry block (0)
        # shares set 0 with nothing else here, so just check non-empty
        assert locked


class TestLockedWCET:
    def test_locked_blocks_hit_everything_else_misses(
        self, loop_program, tiny_cache, timing
    ):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        all_blocks = {
            acfg.block_of(rid) for rid in acfg.ref_rids
        }
        full = locked_wcet(acfg, timing, all_blocks)
        none = locked_wcet(acfg, timing, set())
        refs_weighted = sum(
            acfg.multiplier[rid]
            for rid in acfg.ref_rids
            if full.on_path[rid]
        )
        assert full.objective == pytest.approx(refs_weighted * timing.hit_cycles)
        assert none.objective == pytest.approx(refs_weighted * timing.miss_cycles)

    def test_locking_beats_nothing_when_cache_thrashes(
        self, thrash_program, tiny_cache, timing
    ):
        acfg = build_acfg(thrash_program, block_size=tiny_cache.block_size)
        locked = select_locked_blocks(acfg, tiny_cache)
        with_lock = locked_wcet(acfg, timing, locked)
        without = locked_wcet(acfg, timing, set())
        assert with_lock.objective < without.objective

    def test_unlocked_analysis_beats_locking_on_phased_code(self, timing):
        """The paper's core argument: locking gives up performance the
        analysis could have proven.

        Two sequential loop phases each fit the cache, but together they
        do not: locking can only keep one phase resident, while the
        unlocked cache re-fills between phases and hits in both.
        """
        from repro.program.builder import ProgramBuilder

        b = ProgramBuilder("phased")
        with b.loop(bound=20, name="phaseA"):
            b.code(40)  # 160 B region
        with b.loop(bound=20, name="phaseB"):
            b.code(40)  # another 160 B region
        cfg = b.build()
        config = CacheConfig(1, 16, 256)
        acfg = build_acfg(cfg, block_size=config.block_size)
        unlocked = analyze_wcet(acfg, config, timing)
        locked = locked_wcet(
            acfg, timing, select_locked_blocks(acfg, config)
        )
        assert unlocked.tau_w < locked.objective


class TestLockedSimulation:
    def test_hit_miss_split(self, loop_program, tiny_cache, timing):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        locked = select_locked_blocks(acfg, tiny_cache)
        result = simulate_locked(loop_program, tiny_cache, timing, locked, seed=1)
        assert result.fetches == result.hits + result.demand_misses
        assert result.fills == len(locked)

    def test_empty_lock_set_all_misses(self, straight_program, tiny_cache, timing):
        result = simulate_locked(
            straight_program, tiny_cache, timing, set(), seed=0
        )
        assert result.hits == 0
        assert result.demand_misses == result.fetches

    def test_prefetches_rejected(self, loop_program, tiny_cache, timing):
        target = loop_program.blocks[3].instructions[0]
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, target.uid)
        with pytest.raises(SimulationError):
            simulate_locked(loop_program, tiny_cache, timing, set(), seed=0)

    def test_invalid_block_ids_rejected(self, loop_program, tiny_cache, timing):
        with pytest.raises(SimulationError):
            simulate_locked(loop_program, tiny_cache, timing, {-3}, seed=0)
