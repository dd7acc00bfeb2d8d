"""Tests for the optimization algorithm (Algorithm 3), including the
Theorem-1 property over random programs."""

from __future__ import annotations

import pytest

from repro.analysis.wcet import analyze_wcet
from repro.bench.generator import random_program
from repro.bench.registry import load
from repro.cache.config import TABLE2, CacheConfig
from repro.core.guarantees import (
    verify_prefetch_equivalence,
    verify_wcet_guarantee,
)
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder
from repro.sim.machine import simulate


def _thrashy_program():
    b = ProgramBuilder("target")
    b.code(4)
    with b.loop(bound=12, sim_iterations=10):
        b.code(90)  # 360 B body on a 256 B cache
    b.code(2)
    return b.build()


class TestBasicOperation:
    def test_finds_prefetches_on_thrashing_loop(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        assert report.prefetch_count > 0
        assert report.tau_final < report.tau_original
        assert report.misses_final < report.misses_original

    def test_original_untouched_by_default(self, tiny_cache, timing):
        cfg = _thrashy_program()
        before = cfg.instruction_count
        optimize(cfg, tiny_cache, timing)
        assert cfg.instruction_count == before
        assert cfg.prefetch_count == 0

    def test_inplace_mutates(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, report = optimize(cfg, tiny_cache, timing, inplace=True)
        assert optimized is cfg
        assert cfg.prefetch_count == report.prefetch_count

    def test_no_opportunity_no_change(self, big_cache, timing):
        b = ProgramBuilder("tiny")
        b.code(3)
        cfg = b.build()
        optimized, report = optimize(cfg, big_cache, timing)
        assert report.prefetch_count == 0
        assert report.tau_final == report.tau_original

    def test_max_insertions_respected(self, tiny_cache, timing):
        cfg = _thrashy_program()
        options = OptimizerOptions(max_insertions=2)
        _, report = optimize(cfg, tiny_cache, timing, options=options)
        assert report.prefetch_count <= 2

    def test_max_evaluations_budget(self, tiny_cache, timing):
        cfg = _thrashy_program()
        options = OptimizerOptions(max_evaluations=3)
        _, report = optimize(cfg, tiny_cache, timing, options=options)
        assert report.candidates_evaluated <= 3

    def test_report_bookkeeping(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        assert report.prefetch_count == len(report.inserted)
        assert (
            report.static_instructions_final
            == report.static_instructions_original + report.prefetch_count
        )
        assert report.passes >= 1
        for record in report.inserted:
            assert record.tau_after <= record.tau_before + 1e-6
            assert record.misses_after < record.misses_before
            assert record.terms.effective

    def test_reported_taus_match_reanalysis(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        acfg = build_acfg(optimized, tiny_cache.block_size)
        recomputed = analyze_wcet(acfg, tiny_cache, timing)
        assert recomputed.tau_w == pytest.approx(report.tau_final)


class TestConditions:
    """Conditions 1-3 of Section 2.3 on a conflict-heavy program."""

    def test_condition1_wcet_non_increase(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        check = verify_wcet_guarantee(cfg, optimized, tiny_cache, timing)
        assert check.theorem1_holds

    def test_condition2_miss_reduction(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        check = verify_wcet_guarantee(cfg, optimized, tiny_cache, timing)
        assert check.condition2_holds
        assert check.misses_optimized < check.misses_original

    def test_condition3_acet_improves_in_simulation(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        for seed in (1, 5, 9):
            base = simulate(cfg, tiny_cache, timing, seed=seed)
            opt = simulate(optimized, tiny_cache, timing, seed=seed)
            assert opt.memory_cycles <= base.memory_cycles

    def test_prefetch_equivalence(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, _ = optimize(cfg, tiny_cache, timing)
        assert verify_prefetch_equivalence(cfg, optimized)

    def test_all_prefetches_effective(self, tiny_cache, timing):
        cfg = _thrashy_program()
        optimized, _ = optimize(cfg, tiny_cache, timing)
        check = verify_wcet_guarantee(cfg, optimized, tiny_cache, timing)
        assert check.all_effective


class TestAblationSwitches:
    def test_disable_prefilter_still_safe(self, tiny_cache, timing):
        cfg = _thrashy_program()
        options = OptimizerOptions(use_prefilter=False, max_evaluations=50)
        optimized, report = optimize(cfg, tiny_cache, timing, options=options)
        assert verify_wcet_guarantee(cfg, optimized, tiny_cache, timing).theorem1_holds

    def test_disable_effectiveness_may_insert_late_prefetches(
        self, tiny_cache, timing
    ):
        cfg = _thrashy_program()
        options = OptimizerOptions(require_effectiveness=False)
        optimized, report = optimize(cfg, tiny_cache, timing, options=options)
        # gates on tau/misses still hold
        assert report.tau_final <= report.tau_original

    def test_disable_wcet_gate_loses_the_guarantee_check(self, tiny_cache, timing):
        cfg = _thrashy_program()
        options = OptimizerOptions(
            require_wcet_nonincrease=False, verify_guarantee=False
        )
        optimized, report = optimize(cfg, tiny_cache, timing, options=options)
        # without the gate the optimizer may or may not regress; the
        # report must still be internally consistent
        assert report.prefetch_count == optimized.prefetch_count


class TestTheorem1Property:
    @pytest.mark.parametrize("seed", range(14))
    def test_random_programs_never_regress(self, seed, timing):
        """Theorem 1 re-derived from scratch for a family of programs
        and two cache shapes."""
        cfg = random_program(seed + 900, target_size=80)
        for config in (CacheConfig(1, 16, 128), CacheConfig(2, 16, 256)):
            optimized, report = optimize(cfg, config, timing)
            check = verify_wcet_guarantee(cfg, optimized, config, timing)
            assert check.theorem1_holds
            assert check.condition2_holds
            assert verify_prefetch_equivalence(cfg, optimized)

    @pytest.mark.parametrize("seed", range(6))
    def test_optimizing_twice_is_stable(self, seed, timing, tiny_cache):
        """A second optimization pass over an optimized program must not
        break anything (idempotence up to further improvement)."""
        cfg = random_program(seed + 2000, target_size=60)
        once, report1 = optimize(cfg, tiny_cache, timing)
        twice, report2 = optimize(once, tiny_cache, timing)
        assert report2.tau_final <= report1.tau_final + 1e-6


class TestRecordedOutcomes:
    """The multi-pass loop's outcomes on three Mälardalen programs at
    k1/45nm, budget 120, as pinned in ``perfbench/pins.json`` too.  The
    reverse walk decides which candidates each pass tries, so any
    change to it shows here."""

    @pytest.mark.parametrize(
        "program, tau_final, misses_final, passes, prefetches",
        [
            ("fdct", 21537.0, 555, 34, 33),
            ("ndes", 51123.0, 1164, 7, 6),
            ("adpcm", 67730.0, 1649, 7, 6),
        ],
    )
    def test_k1_budget_120(self, program, tau_final, misses_final, passes,
                           prefetches):
        config = TABLE2["k1"]
        timing = cacti_model(config, technology("45nm")).timing_model()
        _, report = optimize(load(program), config, timing,
                             options=OptimizerOptions(max_evaluations=120))
        assert report.tau_final == tau_final
        assert report.misses_final == misses_final
        assert report.passes == passes
        assert report.prefetch_count == prefetches
