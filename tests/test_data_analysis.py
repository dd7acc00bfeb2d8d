"""Tests for data-cache analysis, split simulation, and data prefetching."""

from __future__ import annotations

import pytest

from repro.analysis.timing import TimingModel
from repro.cache.classify import Classification
from repro.cache.config import CacheConfig
from repro.data.analysis import (
    analyze_data_cache,
    build_data_plan,
    combined_wcet,
    exact_data_block,
)
from repro.data.machine import simulate_split
from repro.data.model import DataKind
from repro.data.prefetch import optimize_data
from repro.cache.classify import UNKNOWN_ACCESS
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder

ICACHE = CacheConfig(2, 16, 512)
DCACHE = CacheConfig(2, 16, 256)
TIMING = TimingModel(1, 30, 1)


def _scalar_program():
    b = ProgramBuilder("scalars")
    b.data_region("cfg", 64)
    b.code(2)
    with b.loop(bound=10, sim_iterations=8):
        b.load("cfg", offset=0)
        b.code(3)
        b.load("cfg", offset=32)
        b.code(2)
    b.code(1)
    return b.build()


def _stream_program():
    b = ProgramBuilder("stream")
    b.data_region("samples", 4096)
    b.code(2)
    with b.loop(bound=32, sim_iterations=24):
        b.load("samples", stride=4)
        b.code(4)
    b.code(1)
    return b.build()


class TestExactness:
    def test_scalar_access_always_exact(self):
        cfg = _scalar_program()
        acfg = build_acfg(cfg, ICACHE.block_size)
        for rid in acfg.ref_rids:
            if acfg.instr[rid].data_access is None:
                continue
            assert exact_data_block(acfg, rid, DCACHE.block_size) is not None

    def test_stream_exact_only_in_first_context(self):
        cfg = _stream_program()
        acfg = build_acfg(cfg, ICACHE.block_size)
        exact, unknown = 0, 0
        for rid in acfg.ref_rids:
            if acfg.instr[rid].data_access is None:
                continue
            block = exact_data_block(acfg, rid, DCACHE.block_size)
            if block is None:
                unknown += 1
            else:
                exact += 1
        assert exact == 1  # FIRST context
        assert unknown == 1  # REST context

    def test_plan_marks_unknowns(self):
        cfg = _stream_program()
        acfg = build_acfg(cfg, ICACHE.block_size)
        plan = build_data_plan(acfg, DCACHE)
        kinds = [entry[0] for entry in plan if entry is not None]
        assert UNKNOWN_ACCESS in kinds


class TestClassification:
    def test_scalar_reuse_hits_after_first(self):
        cfg = _scalar_program()
        acfg = build_acfg(cfg, ICACHE.block_size)
        analysis = analyze_data_cache(acfg, DCACHE)
        rest_data = [
            analysis.classification(rid)
            for rid in acfg.ref_rids
            if acfg.instr[rid].data_access is not None
            and any(el.kind == "R" for el in acfg.context[rid])
        ]
        assert rest_data
        assert all(c.is_hit for c in rest_data)

    def test_unknown_accesses_not_classified(self):
        cfg = _stream_program()
        acfg = build_acfg(cfg, ICACHE.block_size)
        analysis = analyze_data_cache(acfg, DCACHE)
        assert analysis.count(Classification.NOT_CLASSIFIED) >= 1

    def test_unknown_accesses_age_scalar_blocks(self):
        """A stream walking an unknown region conservatively destroys
        the guarantee for scalars sharing the (possibly aliasing) sets —
        the imprecision the data prefetcher then repairs."""
        b = ProgramBuilder("mix")
        b.data_region("cfg", 32)
        b.data_region("samples", 4096)
        b.code(2)
        with b.loop(bound=16, sim_iterations=12):
            b.load("samples", stride=4)
            b.load("samples", offset=16, stride=4)
            b.load("cfg", offset=0)
            b.code(3)
        cfg = b.build()
        acfg = build_acfg(cfg, ICACHE.block_size)
        analysis = analyze_data_cache(acfg, DCACHE)
        rest_cfg_loads = [
            analysis.classification(rid)
            for rid in acfg.ref_rids
            if acfg.instr[rid].data_access is not None
            and acfg.instr[rid].data_access.region == "cfg"
            and any(el.kind == "R" for el in acfg.context[rid])
        ]
        assert rest_cfg_loads
        assert not any(c is Classification.ALWAYS_HIT for c in rest_cfg_loads)


class TestCombinedWCET:
    def test_combined_exceeds_instruction_only(self):
        cfg = _scalar_program()
        acfg = build_acfg(cfg, ICACHE.block_size)
        combined = combined_wcet(acfg, ICACHE, DCACHE, TIMING)
        assert combined.tau_w > combined.instruction.tau_w

    def test_pure_code_program_combined_equals_instruction(
        self, loop_program
    ):
        acfg = build_acfg(loop_program, ICACHE.block_size)
        combined = combined_wcet(acfg, ICACHE, DCACHE, TIMING)
        assert combined.tau_w == pytest.approx(combined.instruction.tau_w)
        assert combined.data_misses == 0

    def test_bigger_data_cache_never_worse(self):
        cfg = _scalar_program()
        acfg = build_acfg(cfg, ICACHE.block_size)
        small = combined_wcet(acfg, ICACHE, CacheConfig(1, 16, 64), TIMING)
        large = combined_wcet(acfg, ICACHE, CacheConfig(4, 16, 1024), TIMING)
        assert large.tau_w <= small.tau_w


class TestSplitSimulation:
    def test_data_side_counts_accesses(self):
        cfg = _scalar_program()
        result = simulate_split(cfg, ICACHE, DCACHE, TIMING, seed=1)
        assert result.data.fetches == 16  # 8 iterations x 2 loads
        assert result.memory_cycles == pytest.approx(
            result.instruction.memory_cycles + result.data.memory_cycles
        )

    def test_stream_addresses_advance(self):
        cfg = _stream_program()
        result = simulate_split(cfg, ICACHE, DCACHE, TIMING, seed=1)
        # 24 iterations x 4-byte stride = 96 bytes = 6+ blocks missed
        assert result.data.demand_misses >= 6

    def test_data_misses_sound_vs_analysis(self):
        """The WCET data-miss bound dominates any simulated run."""
        for factory in (_scalar_program, _stream_program):
            cfg = factory()
            acfg = build_acfg(cfg, ICACHE.block_size)
            combined = combined_wcet(acfg, ICACHE, DCACHE, TIMING)
            sim = simulate_split(cfg, ICACHE, DCACHE, TIMING, seed=2)
            assert combined.data_misses >= sim.data.demand_misses


class TestDataPrefetching:
    def _mixed_program(self):
        b = ProgramBuilder("mix")
        b.data_region("table", 64)
        b.data_region("samples", 4096)
        b.code(4)
        with b.loop(bound=32, sim_iterations=28):
            b.load("samples", stride=4)
            b.code(3)
            b.load("table", offset=0)
            b.code(2)
            b.load("table", offset=32)
            b.code(3)
            b.store("samples", offset=0, stride=4)
        b.code(2)
        return b.build()

    def test_inserts_and_never_regresses(self):
        cfg = self._mixed_program()
        optimized, report = optimize_data(cfg, ICACHE, DCACHE, TIMING)
        assert report.tau_final <= report.tau_original
        assert report.data_misses_final <= report.data_misses_original
        if report.inserted:
            assert optimized.prefetch_count == len(report.inserted)

    def test_original_untouched(self):
        cfg = self._mixed_program()
        before = cfg.instruction_count
        optimize_data(cfg, ICACHE, DCACHE, TIMING)
        assert cfg.instruction_count == before

    def test_combined_guarantee_reverified(self):
        cfg = self._mixed_program()
        optimized, report = optimize_data(cfg, ICACHE, DCACHE, TIMING)
        acfg_orig = build_acfg(cfg, ICACHE.block_size)
        acfg_opt = build_acfg(optimized, ICACHE.block_size)
        orig = combined_wcet(acfg_orig, ICACHE, DCACHE, TIMING)
        opt = combined_wcet(acfg_opt, ICACHE, DCACHE, TIMING)
        assert opt.tau_w <= orig.tau_w + 1e-6

    def test_no_data_no_insertions(self, loop_program):
        optimized, report = optimize_data(loop_program, ICACHE, DCACHE, TIMING)
        assert report.inserted == []
        assert report.tau_final == report.tau_original
