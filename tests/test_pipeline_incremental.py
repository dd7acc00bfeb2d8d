"""Incremental == cold: equivalence tests for the analysis pipeline.

The pipeline's delta re-analysis (warm-started fixpoint + IPET) must be
*bit-identical* to a from-scratch run — same τ_w, same classifications,
same per-reference times, same WCET-path counts.  The fast tests here
prove it deterministically on a Mälardalen subset; the slow hypothesis
test sweeps randomly generated programs.  Both lean on the pipeline's
``differential`` mode, which re-runs every analysis — cold, delta or
handed along — with the python oracle, ``analyze_wcet``, and raises
:class:`~repro.errors.AnalysisError` on any divergence.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.refine
import repro.cache.classify
from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.wcet import analyze_wcet
from repro.bench.generator import random_program
from repro.bench.registry import load
from repro.cache.config import CacheConfig, hierarchy_for
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model, hierarchy_model
from repro.energy.technology import technology
from repro.errors import AnalysisError
from repro.program.acfg import build_acfg

CONFIG = CacheConfig(1, 16, 256)  # the paper's k1
TIMING = cacti_model(CONFIG, technology("45nm")).timing_model()

#: Small, fast Mälardalen members — enough structural variety (straight
#: line, nested loops, calls, branches) without slowing tier-1 down.
FAST_PROGRAMS = ["bs", "fac", "fibcall", "insertsort", "jfdctint", "crc"]


def _wcet_fingerprint(wcet):
    """Every analysis output the acceptance criterion compares on."""
    acfg = wcet.acfg
    return (
        wcet.tau_w,
        wcet.wcet_path_misses,
        tuple(wcet.t_w),
        tuple(wcet.solution.n_w),
        tuple(
            wcet.cache.classification(v.rid).value
            for v in acfg.ref_vertices()
        ),
        tuple(sorted(wcet.latency_guarded)),
        tuple(sorted(wcet.persistent_charged_blocks)),
    )


def _analyses(pipeline):
    """Every analysis a pipeline ran: each is a delta or a cold run."""
    return pipeline.stats.delta_runs + pipeline.stats.cold_runs


class TestColdEqualsStandalone:
    """A cold pipeline run must equal the plain analyze_wcet path."""

    @pytest.mark.parametrize("program", FAST_PROGRAMS)
    def test_cold_matches_analyze_wcet(self, program):
        cfg = load(program)
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        via_pipeline = pipeline.analyze(cfg).wcet
        standalone = analyze_wcet(
            build_acfg(cfg, CONFIG.block_size), CONFIG, TIMING
        )
        assert _wcet_fingerprint(via_pipeline) == _wcet_fingerprint(standalone)


class TestIncrementalEqualsCold:
    """Delta re-analysis across optimizer passes is bit-identical."""

    @pytest.mark.parametrize("program", ["crc", "matmult", "jfdctint"])
    def test_optimize_differential(self, program):
        cfg = load(program)
        opts = OptimizerOptions(max_evaluations=12)
        pipeline = AnalysisPipeline.for_options(
            CONFIG, TIMING, opts, differential=True
        )
        _, report = optimize(
            cfg, CONFIG, TIMING, options=opts, pipeline=pipeline
        )
        # Differential mode re-runs every analysis cold and raises on
        # any mismatch, so reaching this line with checks performed is
        # the equivalence proof.
        assert report.candidates_evaluated > 0
        assert pipeline.stats.delta_runs == report.candidates_evaluated
        assert pipeline.stats.differential_checks == _analyses(pipeline)
        assert pipeline.stats.delta_fallbacks == 0

    @pytest.mark.parametrize(
        "program,l2,with_persistence",
        [("crc", None, False), ("ndes", "4:16:4096:10", True)],
        ids=["single-level", "l2"],
    )
    def test_optimize_differential_refined(self, program, l2,
                                           with_persistence):
        # The refine stage explores only the NC sets and warm-starts
        # from the base's completed sets; every delta must still equal a
        # cold refined analyze_wcet.
        opts = OptimizerOptions(
            max_evaluations=12, refine=True, l2=l2,
            with_persistence=with_persistence,
        )
        timing = hierarchy_model(
            hierarchy_for(CONFIG, l2), technology("45nm")
        ).timing
        pipeline = AnalysisPipeline.for_options(
            CONFIG, timing, opts, differential=True
        )
        _, report = optimize(
            load(program), CONFIG, timing, options=opts, pipeline=pipeline
        )
        assert report.candidates_evaluated > 0
        assert pipeline.stats.delta_runs == report.candidates_evaluated
        assert pipeline.stats.differential_checks == _analyses(pipeline)
        assert pipeline.stats.refine_runs == pipeline.stats.delta_runs + 1
        assert pipeline.stats.refine_promotions > 0

    @pytest.mark.parametrize(
        "program,budget", [("crc", 20), ("matmult", 60)]
    )
    def test_optimize_differential_refined_under_exhaustion(
        self, monkeypatch, program, budget
    ):
        # A warm start charges its copied prefix to the budget, so a
        # delta abandons exactly the sets a cold run abandons.
        monkeypatch.setattr(repro.analysis.refine, "DEFAULT_BUDGET", budget)
        opts = OptimizerOptions(
            max_evaluations=12, refine=True, with_persistence=False,
        )
        pipeline = AnalysisPipeline.for_options(
            CONFIG, TIMING, opts, differential=True
        )
        _, report = optimize(
            load(program), CONFIG, TIMING, options=opts, pipeline=pipeline
        )
        assert report.candidates_evaluated > 0
        assert pipeline.stats.differential_checks == _analyses(pipeline)
        assert pipeline.stats.refine_exhausted == pipeline.stats.refine_runs

    def test_shared_pipeline_matches_fresh(self):
        cfg = load("matmult")
        opts = OptimizerOptions(max_evaluations=12)
        shared = AnalysisPipeline.for_options(CONFIG, TIMING, opts)
        _, warm1 = optimize(cfg, CONFIG, TIMING, options=opts, pipeline=shared)
        _, warm2 = optimize(cfg, CONFIG, TIMING, options=opts, pipeline=shared)
        _, fresh = optimize(cfg, CONFIG, TIMING, options=opts)
        for report in (warm1, warm2):
            assert report.tau_final == fresh.tau_final
            assert report.misses_final == fresh.misses_final
            assert report.prefetch_count == fresh.prefetch_count
            assert report.passes == fresh.passes

    def test_mismatched_pipeline_rejected(self):
        from repro.errors import OptimizationError

        cfg = load("bs")
        other_config = CacheConfig(2, 16, 512)
        other_timing = cacti_model(
            other_config, technology("45nm")
        ).timing_model()
        pipeline = AnalysisPipeline(other_config, other_timing)
        with pytest.raises(OptimizationError):
            optimize(cfg, CONFIG, TIMING, pipeline=pipeline)

    def test_differential_check_runs_the_python_oracle(self, monkeypatch):
        # The cold run a dense delta is checked against is the python
        # oracle.
        calls = []
        real = repro.cache.classify.propagate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        pipeline = AnalysisPipeline(CONFIG, TIMING, differential=True)
        cfg = load("crc")
        base = pipeline.analyze(cfg, with_may=False)
        monkeypatch.setattr(repro.cache.classify, "propagate", counting)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        pipeline.analyze(cfg, with_may=False, base=base, edit=edit)
        assert pipeline.stats.delta_runs == 1
        assert pipeline.stats.differential_checks == 2
        assert len(calls) > 0


class TestPythonKernelIsTheColdOracle:
    """``analyze_wcet`` is the cold oracle of every analysis a
    differential pipeline returns, the ones it was handed a result for
    included: each handed analysis is also run cold, and must equal it."""

    @pytest.mark.parametrize("l2", [None, "4:16:4096:10"], ids=["l1", "l2"])
    def test_handed_analyses_run_cold(self, l2):
        levels = hierarchy_for(CONFIG, l2)
        hierarchy = levels if l2 else None
        timing = hierarchy_model(levels, technology("45nm")).timing
        pipeline = AnalysisPipeline(
            CONFIG, timing, hierarchy=hierarchy, refine=True,
            differential=True,
        )

        def oracle(cfg, with_may):
            return analyze_wcet(
                build_acfg(cfg, CONFIG.block_size), CONFIG, timing,
                with_may=with_may, hierarchy=hierarchy, refine=True,
            )

        cfg = load("ndes")
        start = pipeline.analyze(cfg)
        reused = pipeline.analyze(cfg, with_may=False, reuse=start)
        assert _wcet_fingerprint(start.wcet) == _wcet_fingerprint(
            oracle(cfg, True)
        )
        assert _wcet_fingerprint(reused.wcet) == _wcet_fingerprint(
            oracle(cfg, False)
        )
        # Two chained candidates, each handed its base and its edit.
        base = reused
        for edit in ((cfg.blocks[3].name, 1), (cfg.blocks[5].name, 0)):
            cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
            result = pipeline.analyze(
                cfg, with_may=False, base=base, edit=edit
            )
            assert _wcet_fingerprint(result.wcet) == _wcet_fingerprint(
                oracle(cfg, False)
            )
            base = result
        stats = pipeline.stats
        assert stats.structural_hits == 1
        assert (stats.cold_runs, stats.delta_runs) == (2, 2)
        assert stats.differential_checks == 4

    def test_foreign_reuse_still_raises(self):
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        other = AnalysisPipeline(CONFIG, TIMING)
        start = pipeline.analyze(load("bs"))
        with pytest.raises(AnalysisError):
            other.analyze(load("bs"), reuse=start)
        with pytest.raises(AnalysisError):
            pipeline.analyze(load("bs"), reuse=start, base=start)


@pytest.mark.slow
class TestIncrementalEqualsColdGenerated:
    """Property check over generated programs (slow suite)."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_optimize_differential_random(self, seed):
        cfg = random_program(seed, target_size=120, max_depth=3)
        opts = OptimizerOptions(max_evaluations=10)
        pipeline = AnalysisPipeline.for_options(
            CONFIG, TIMING, opts, differential=True
        )
        optimize(cfg, CONFIG, TIMING, options=opts, pipeline=pipeline)
        assert pipeline.stats.differential_checks == _analyses(pipeline)
        assert pipeline.stats.delta_fallbacks == 0

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cold_matches_analyze_wcet_random(self, seed):
        cfg = random_program(seed, target_size=120, max_depth=3)
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        via_pipeline = pipeline.analyze(cfg).wcet
        standalone = analyze_wcet(
            build_acfg(cfg, CONFIG.block_size), CONFIG, TIMING
        )
        assert _wcet_fingerprint(via_pipeline) == _wcet_fingerprint(standalone)
