"""Tests for the hybrid locking+prefetching scheme and locked-aware
analysis/simulation."""

from __future__ import annotations

import pytest

from repro.analysis.wcet import analyze_wcet
from repro.cache.classify import Classification, analyze_cache
from repro.cache.config import CacheConfig
from repro.core.optimizer import OptimizerOptions
from repro.errors import SimulationError
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder
from repro.sim.locking import optimize_with_locking, residual_config
from repro.sim.machine import MemorySystem, simulate


def _program():
    b = ProgramBuilder("hybrid")
    b.code(4)
    with b.loop(bound=10, sim_iterations=8):
        b.code(60)
    b.code(2)
    return b.build()


class TestResidualConfig:
    def test_reduces_ways_keeps_sets(self):
        full = CacheConfig(4, 16, 1024)  # 16 sets
        residual = residual_config(full, 1)
        assert residual.associativity == 3
        assert residual.num_sets == full.num_sets
        assert residual.capacity == 768

    def test_bounds_checked(self):
        full = CacheConfig(2, 16, 512)
        with pytest.raises(SimulationError):
            residual_config(full, 0)
        with pytest.raises(SimulationError):
            residual_config(full, 2)


class TestLockedAwareAnalysis:
    def test_locked_blocks_classify_always_hit(self, timing):
        cfg = _program()
        config = CacheConfig(1, 16, 256)
        acfg = build_acfg(cfg, config.block_size)
        locked = frozenset({0, 1})
        analysis = analyze_cache(acfg, config, locked_blocks=locked)
        for rid in acfg.ref_rids:
            if acfg.block_of(rid) in locked:
                assert (
                    analysis.classification(rid)
                    is Classification.ALWAYS_HIT
                )

    def test_locked_blocks_do_not_disturb_lru_state(self, timing):
        """Locking a conflicting block removes its interference."""
        config = CacheConfig(1, 16, 32)  # 2 sets, direct-mapped
        b = ProgramBuilder("p")
        with b.loop(bound=8):
            b.code(9)  # ~3 blocks through 2 sets: set-0 conflict
        cfg = b.build()
        acfg = build_acfg(cfg, config.block_size)
        plain = analyze_wcet(acfg, config, timing)
        # lock block 2 (conflicts with block 0 in set 0)
        locked = analyze_wcet(acfg, config, timing, locked_blocks=frozenset({2}))
        assert locked.tau_w < plain.tau_w

    def test_locked_wcet_monotone_in_locked_set(self, timing):
        cfg = _program()
        config = CacheConfig(1, 16, 256)
        acfg = build_acfg(cfg, config.block_size)
        taus = []
        for locked in (frozenset(), frozenset({4}), frozenset({4, 5, 6})):
            taus.append(
                analyze_wcet(acfg, config, timing, locked_blocks=locked).tau_w
            )
        assert taus[0] >= taus[1] >= taus[2]


class TestLockedMachine:
    def test_locked_fetch_always_hits(self, timing):
        system = MemorySystem(
            CacheConfig(2, 16, 64), timing, locked_blocks=frozenset({5})
        )
        assert system.fetch(5 * 16) == timing.hit_cycles
        assert system.result.demand_misses == 0

    def test_locked_block_prefetch_dropped(self, timing):
        system = MemorySystem(
            CacheConfig(2, 16, 64), timing, locked_blocks=frozenset({5})
        )
        assert system.issue_prefetch(5) is False
        assert system.result.prefetch_transfers == 0

    def test_locked_fetch_does_not_touch_lru(self, timing):
        config = CacheConfig(1, 16, 32)  # 2 sets, 1-way
        system = MemorySystem(config, timing, locked_blocks=frozenset({2}))
        system.fetch(0)        # block 0 -> set 0
        system.fetch(2 * 16)   # locked: must NOT evict block 0
        assert system.fetch(0) == timing.hit_cycles


class TestHybridScheme:
    def test_hybrid_improves_over_baseline(self, timing):
        cfg = _program()
        config = CacheConfig(2, 16, 256)
        acfg = build_acfg(cfg, config.block_size)
        base = analyze_wcet(acfg, config, timing).tau_w
        locked, optimized, report, residual = optimize_with_locking(
            cfg, config, timing, locked_ways=1,
            options=OptimizerOptions(max_evaluations=60),
        )
        assert locked
        assert report.tau_final <= report.tau_original

    def test_locked_blocks_capped_per_set(self, timing):
        cfg = _program()
        config = CacheConfig(2, 16, 256)
        locked, _, _, _ = optimize_with_locking(
            cfg, config, timing, locked_ways=1,
            options=OptimizerOptions(max_evaluations=10),
        )
        per_set: dict = {}
        for block in locked:
            per_set.setdefault(config.set_index(block), []).append(block)
        assert all(len(blocks) <= 1 for blocks in per_set.values())

    def test_hybrid_simulation_consistent(self, timing):
        cfg = _program()
        config = CacheConfig(2, 16, 256)
        locked, optimized, report, residual = optimize_with_locking(
            cfg, config, timing, locked_ways=1,
            options=OptimizerOptions(max_evaluations=60),
        )
        result = simulate(
            optimized, residual, timing, seed=1, locked_blocks=locked
        )
        result.validate()
        assert result.hits > 0
