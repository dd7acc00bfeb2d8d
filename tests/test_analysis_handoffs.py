"""The analysis handoffs of a use case == fresh analyses.

The pipeline keeps no results; reuse is handed along explicitly:

* ``run_usecase`` passes the original measurement's analysis to
  ``optimize`` as ``start``, whose first must-only analysis reuses its
  ACFG and abstract fixpoints (``AnalysisPipeline.analyze(reuse=)``);
* a use case whose optimizer accepted no prefetch is not measured
  twice: its optimized measurement is the original's.

These tests prove both invisible in every output: a use case equals
one whose phases each run on a fresh pipeline, and the unchanged
program's measurement equals a fresh ``measure_program``.  The tests of
the reuse path itself pin the vectorized kernel: a python-kernel
pipeline runs every analysis cold and hands nothing along.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.experiments.usecase as usecase_module
from repro.analysis.pipeline import AnalysisPipeline
from repro.bench.registry import load
from repro.cache.config import hierarchy_for
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import hierarchy_model
from repro.energy.technology import technology
from repro.errors import AnalysisError, OptimizationError
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import SweepSpec, default_grid
from repro.experiments.usecase import (
    UseCase,
    UseCaseResult,
    measure_program,
    pipeline_for_usecase,
    run_usecase,
)

L2_SPEC = "4:16:4096:10"
MODES = {
    "plain": {},
    "refine": {"refine": True},
    "l2": {"l2": L2_SPEC},
}


def _fresh_phases(case: UseCase, opts: OptimizerOptions) -> UseCaseResult:
    """The use case with every phase on its own fresh pipeline and both
    programs measured, handing nothing along."""
    config = case.cache_config()
    l2 = case.l2 or opts.l2
    timing = hierarchy_model(
        hierarchy_for(config, l2), technology(case.tech)
    ).timing
    original_cfg = load(case.program)
    original = measure_program(
        original_cfg, config, case.tech,
        pipeline=pipeline_for_usecase(case, opts), l2=l2,
    )
    optimized_cfg, report = optimize(
        original_cfg, config, timing, options=opts,
        pipeline=pipeline_for_usecase(case, opts),
    )
    optimized = measure_program(
        optimized_cfg, config, case.tech,
        pipeline=pipeline_for_usecase(case, opts), l2=l2,
    )
    return UseCaseResult(case, original, optimized, report)


def _without_counters(result: UseCaseResult) -> dict:
    doc = result_to_dict(result)
    doc["report"].pop("pipeline")
    return doc


@pytest.fixture
def simulated(monkeypatch):
    """The programs ``run_usecase`` simulates, in call order."""
    calls = []
    real = usecase_module.simulate

    def counting(cfg, *args, **kwargs):
        calls.append(cfg)
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(usecase_module, "simulate", counting)
    return calls


class TestUsecaseHandoffs:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("baseline", ["classic", "persistence"])
    @pytest.mark.parametrize("program", ["crc", "matmult", "bs", "lcdnum"])
    def test_equals_fresh_pipelines_per_phase(self, program, baseline, mode):
        opts = OptimizerOptions(
            max_evaluations=20,
            with_persistence=baseline == "persistence",
            **MODES[mode],
        )
        case = UseCase(program, "k1", "45nm", MODES[mode].get("l2"))
        handed = run_usecase(case, options=opts)
        assert _without_counters(handed) == _without_counters(
            _fresh_phases(case, opts)
        )

    def test_optimizer_reuses_the_original_analysis(self):
        opts = OptimizerOptions(
            max_evaluations=20, with_persistence=True, kernel="vectorized"
        )
        result = run_usecase(UseCase("matmult", "k1", "45nm"), options=opts)
        counters = result.report.pipeline
        # The original measurement built the ACFG and ran must, may and
        # persistence; the optimizer's must-only first analysis reused
        # the ACFG and the must and persistence fixpoints.  matmult
        # takes prefetches, so the optimized program's measurement runs
        # the third cold analysis.
        assert result.report.inserted
        assert counters["structural_hits"] == 1
        assert counters["dataflow_hits"] == 2
        assert counters["cold_runs"] == 3
        assert counters["delta_runs"] == result.report.candidates_evaluated

    @pytest.mark.parametrize("program,inserts", [
        ("bs", True), ("matmult", True), ("lcdnum", False),
    ])
    def test_report_counts_every_phase(self, program, inserts):
        case = UseCase(program, "k1", "45nm")
        opts = OptimizerOptions(max_evaluations=20, with_persistence=False)
        pipeline = pipeline_for_usecase(case, opts)
        result = run_usecase(case, options=opts, pipeline=pipeline)
        assert bool(result.report.inserted) == inserts
        assert result.report.pipeline == pipeline.stats.counters()

    def test_unchanged_program_is_simulated_once(self, simulated):
        case = UseCase("lcdnum", "k1", "45nm")
        opts = OptimizerOptions(max_evaluations=20, with_persistence=False)
        result = run_usecase(case, options=opts)
        assert result.report.candidates_evaluated > 0
        assert not result.report.inserted
        assert len(simulated) == 1
        assert result.optimized == measure_program(
            load("lcdnum"), case.cache_config(), case.tech,
            pipeline=pipeline_for_usecase(case, opts),
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec,unchanged",
        [
            (
                # The serial cold sweep of the benchmark: 20 small and
                # mid-size programs x 6 capacities, classic, budget 20.
                SweepSpec(
                    programs=(
                        "fibcall", "sqrt", "insertsort", "recursion", "fac",
                        "bs", "lcdnum", "fir", "prime", "cnt",
                        "janne_complex", "qurt", "duff", "select", "expint",
                        "bsort100", "crc", "icall", "st", "matmult",
                    ),
                    config_ids=default_grid(techs=("45nm",)).config_ids,
                    techs=("45nm",), max_evaluations=20,
                    baseline="classic",
                ),
                30,
            ),
            (
                # The service benchmark's 80 distinct usecase jobs.
                SweepSpec(
                    programs=("fibcall", "sqrt", "insertsort", "recursion",
                              "fac", "bs", "lcdnum", "fir", "prime", "cnt"),
                    config_ids=("k1", "k3", "k7", "k13", "k15", "k19",
                                "k25", "k31"),
                    techs=("45nm",), max_evaluations=20,
                    baseline="persistence",
                ),
                80,
            ),
        ],
        ids=["sweep-grid", "service-jobs"],
    )
    def test_shortcut_share_on_the_benchmark_grids(self, simulated, spec,
                                                   unchanged):
        options = spec.optimizer_options()
        results = [
            run_usecase(case, seed=spec.seed, options=options)
            for case in spec.usecases()
        ]
        assert sum(not r.report.inserted for r in results) == unchanged
        assert len(simulated) == 2 * spec.size - unchanged


class TestReuseContract:
    def test_reuse_requires_a_result_of_the_same_pipeline(self):
        case = UseCase("bs", "k1", "45nm")
        opts = OptimizerOptions()
        start = pipeline_for_usecase(case, opts).analyze(load("bs"))
        other = pipeline_for_usecase(case, opts)
        with pytest.raises(AnalysisError):
            other.analyze(load("bs"), reuse=start)
        with pytest.raises(AnalysisError):
            start.owner.analyze(load("bs"), reuse=start, base=start)
        config = case.cache_config()
        with pytest.raises(OptimizationError):
            optimize(load("bs"), config, other.timing, options=opts,
                     pipeline=other, start=start)

    def test_differential_mode_checks_the_reused_analysis(self):
        case = UseCase("matmult", "k1", "45nm")
        opts = OptimizerOptions(max_evaluations=6, kernel="vectorized")
        config = case.cache_config()
        pipeline = AnalysisPipeline.for_options(
            config, pipeline_for_usecase(case, opts).timing, opts,
            differential=True,
        )
        start = pipeline.analyze(load("matmult"))
        _, report = optimize(load("matmult"), config, pipeline.timing,
                             options=opts, start=start)
        assert pipeline.stats.structural_hits == 1
        assert pipeline.stats.differential_checks == (
            pipeline.stats.delta_runs + 1
        )
        assert report.candidates_evaluated > 0


class TestLifetime:
    """Nothing the optimizer builds holds its pipeline in a reference
    cycle, so a dropped pipeline's dense matrices and memos are freed
    at once, not when the cyclic collector next runs."""

    @pytest.mark.parametrize("handed", [False, True], ids=["plain", "start"])
    def test_dropped_pipeline_dies_without_the_collector(self, handed):
        case = UseCase("matmult", "k1", "45nm")
        opts = OptimizerOptions(max_evaluations=10)
        config = case.cache_config()
        gc.collect()
        gc.disable()
        try:
            pipeline = pipeline_for_usecase(case, opts)
            alive = weakref.ref(pipeline)
            start = pipeline.analyze(load("matmult")) if handed else None
            _, report = optimize(
                load("matmult"), config, pipeline.timing, options=opts,
                pipeline=pipeline, start=start,
            )
            del pipeline, start
            assert report.candidates_evaluated > 0
            assert alive() is None
        finally:
            gc.enable()
