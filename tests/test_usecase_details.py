"""Detailed tests of the use-case measurement plumbing."""

from __future__ import annotations

import pytest

from repro.bench.registry import load
from repro.core.optimizer import OptimizerOptions
from repro.experiments.usecase import (
    ProgramMeasurement,
    UseCase,
    _ratio,
    measure_program,
    pipeline_for_usecase,
    run_cross_capacity,
    run_usecase,
)


def _measure(usecase, seed=1, **options):
    """A measurement of the use case's program through a pipeline built
    from ``OptimizerOptions(**options)``."""
    return measure_program(
        load(usecase.program), usecase.cache_config(), usecase.tech,
        seed=seed,
        pipeline=pipeline_for_usecase(usecase, OptimizerOptions(**options)),
    )


class TestMeasureProgram:
    def test_persistence_flag_changes_the_bound(self):
        case = UseCase("bsort100", "k1", "45nm")
        tight = _measure(case, with_persistence=True)
        loose = _measure(case, with_persistence=False)
        assert tight.tau_w <= loose.tau_w
        # the simulation is baseline-independent
        assert tight.tau_a == loose.tau_a
        assert tight.miss_rate_acet == loose.miss_rate_acet

    def test_measurement_fields_consistent(self):
        cfg = load("crc")
        m = _measure(UseCase("crc", "k7", "32nm"))
        assert m.executed_instructions > 0
        assert m.static_instructions == cfg.instruction_count
        assert 0.0 <= m.miss_rate_acet <= 1.0
        assert 0.0 <= m.miss_rate_wcet <= 1.0
        assert m.energy.total_j > 0
        assert m.prefetch_transfer_energy_j == 0.0  # no prefetches yet
        assert m.energy_paper_mode_j == pytest.approx(m.energy.total_j)


class TestPaperModeEnergy:
    def test_paper_mode_never_above_physical(self):
        result = run_usecase(
            UseCase("fdct", "k1", "45nm"),
            options=OptimizerOptions(
                with_persistence=False, max_evaluations=60
            ),
        )
        # paper mode removes the prefetch transfer charge from the
        # optimized program only, so its ratio is <= the physical one
        assert result.energy_ratio_paper_mode <= result.energy_ratio + 1e-9

    def test_paper_mode_equals_physical_without_prefetches(self):
        result = run_usecase(
            UseCase("bs", "k31", "45nm"),
            options=OptimizerOptions(max_evaluations=5),
        )
        if result.report.prefetch_count == 0:
            assert result.energy_ratio_paper_mode == pytest.approx(
                result.energy_ratio
            )


class TestRatioEdgeCases:
    def test_plain_division(self):
        assert _ratio(1.0, 2.0) == 0.5
        assert _ratio(3.0, 3.0) == 1.0

    def test_zero_over_zero_is_a_true_noop(self):
        # neither build consumed the quantity: "unchanged" is honest
        assert _ratio(0.0, 0.0) == 1.0

    def test_positive_over_zero_is_an_unbounded_regression(self):
        # the optimized build consumes something the original did not;
        # this must not masquerade as "unchanged"
        assert _ratio(2.0, 0.0) == float("inf")
        assert _ratio(1e-12, 0.0) == float("inf")


class TestCrossCapacityBaseAddress:
    def test_original_measurement_uses_the_options_base_address(self):
        """Regression: the big-cache original measurement used to ignore
        ``options.base_address`` (always 0) while the optimized
        small-cache measurement ran at the pipeline's base address, so
        the two executables were laid out differently."""
        usecase = UseCase("bs", "k1", "45nm")
        options = OptimizerOptions(max_evaluations=5, base_address=64)
        result = run_cross_capacity(usecase, 0.5, seed=1, options=options)
        # the original side must equal a standalone measurement of the
        # same program at the same (nonzero) base address...
        expected = _measure(usecase, base_address=64)
        assert result.original.tau_w == expected.tau_w
        assert result.original.tau_a == expected.tau_a
        assert result.original.miss_rate_acet == expected.miss_rate_acet
        # ...and differ from the base-address-0 layout whenever the
        # layout matters to this cache (guards against the fix rotting)
        at_zero = _measure(usecase, base_address=0)
        if (at_zero.tau_w, at_zero.tau_a) != (expected.tau_w, expected.tau_a):
            assert (result.original.tau_w, result.original.tau_a) != (
                at_zero.tau_w, at_zero.tau_a
            )

    def test_default_options_keep_base_address_zero(self):
        usecase = UseCase("bs", "k1", "45nm")
        options = OptimizerOptions(max_evaluations=5)
        result = run_cross_capacity(usecase, 0.5, seed=1, options=options)
        expected = _measure(usecase, base_address=0)
        assert result.original.tau_w == expected.tau_w
        assert result.original.tau_a == expected.tau_a


class TestCrossCapacityOriginalOptions:
    def test_original_measurement_is_refined(self):
        """Regression: the big-cache original was analysed without
        ``refine`` (or ``locked_blocks``) while the small-cache side ran
        a full pipeline.  whet/k9 under the classic baseline: 5151
        cycles unrefined, 5119 refined."""
        usecase = UseCase("whet", "k9", "45nm")
        options = dict(with_persistence=False, refine=True,
                       max_evaluations=3)
        result = run_cross_capacity(
            usecase, 0.5, seed=1, options=OptimizerOptions(**options)
        )
        expected = _measure(usecase, **options)
        assert result.original == expected
        assert result.original.tau_w == 5119


class TestBaselineThreading:
    def test_usecase_respects_baseline_options(self):
        classic = run_usecase(
            UseCase("insertsort", "k1", "45nm"),
            options=OptimizerOptions(
                with_persistence=False, max_evaluations=40
            ),
        )
        persistence = run_usecase(
            UseCase("insertsort", "k1", "45nm"),
            options=OptimizerOptions(
                with_persistence=True, max_evaluations=40
            ),
        )
        # baselines differ: the classic original bound is looser
        assert classic.original.tau_w >= persistence.original.tau_w
        # each mode individually upholds Theorem 1 w.r.t. its own baseline
        assert classic.wcet_ratio <= 1.0 + 1e-9
        assert persistence.wcet_ratio <= 1.0 + 1e-9
