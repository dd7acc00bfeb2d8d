"""Tests for the end-to-end WCET driver."""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import analyze_wcet, compute_ref_times
from repro.cache.classify import Classification, DataflowResult, analyze_cache
from repro.cache.kernel import DenseDataflowResult
from repro.errors import AnalysisError
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder


class TestTimingModel:
    def test_derived_quantities(self, timing):
        assert timing.miss_cycles == 31
        assert timing.prefetch_latency == 30

    def test_validation(self):
        with pytest.raises(AnalysisError):
            TimingModel(hit_cycles=0)
        with pytest.raises(AnalysisError):
            TimingModel(miss_penalty_cycles=0)
        with pytest.raises(AnalysisError):
            TimingModel(prefetch_issue_cycles=-1)


class TestComputeRefTimes:
    def test_hit_and_miss_charging(self, loop_program, big_cache, timing):
        acfg = build_acfg(loop_program, block_size=big_cache.block_size)
        analysis = analyze_cache(acfg, big_cache)
        times = compute_ref_times(acfg, analysis, timing)
        for vertex in acfg.ref_vertices():
            classification = analysis.classification(vertex.rid)
            if classification.is_hit:
                assert times[vertex.rid] == timing.hit_cycles
            else:
                assert times[vertex.rid] == timing.miss_cycles

    def test_non_refs_cost_nothing(self, loop_program, big_cache, timing):
        acfg = build_acfg(loop_program, block_size=big_cache.block_size)
        analysis = analyze_cache(acfg, big_cache)
        times = compute_ref_times(acfg, analysis, timing)
        for vertex in acfg.iter_topological():
            if not vertex.is_ref:
                assert times[vertex.rid] == 0.0

    def test_prefetch_adds_issue_slot(self, loop_program, big_cache, timing):
        target = loop_program.blocks[3].instructions[0]
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, target.uid)
        acfg = build_acfg(loop_program, block_size=big_cache.block_size)
        analysis = analyze_cache(acfg, big_cache)
        times = compute_ref_times(acfg, analysis, timing)
        pf = next(v for v in acfg.ref_vertices() if v.is_prefetch)
        assert times[pf.rid] >= timing.hit_cycles + timing.prefetch_issue_cycles


class TestWCETResult:
    def test_tau_w_matches_manual_sum(self, loop_program, tiny_cache, timing):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        result = analyze_wcet(acfg, tiny_cache, timing)
        manual = sum(
            result.tau_of(v.rid) for v in acfg.ref_vertices()
        ) + result.persistence_penalty
        assert result.tau_w == pytest.approx(manual)

    def test_backends_agree_end_to_end(self, nested_program, tiny_cache, timing):
        acfg = build_acfg(nested_program, block_size=tiny_cache.block_size)
        structural = analyze_wcet(acfg, tiny_cache, timing, backend="structural")
        ilp = analyze_wcet(acfg, tiny_cache, timing, backend="ilp")
        assert structural.tau_w == pytest.approx(ilp.tau_w)

    @pytest.mark.parametrize("session", ["python", "vectorized"])
    def test_analyze_wcet_is_the_oracle_under_either_session(
        self, loop_program, tiny_cache, timing, monkeypatch, session
    ):
        # A leftover REPRO_CACHE_KERNEL (the former session kernel)
        # selects nothing: analyze_wcet runs the python domains, the
        # pipeline the dense ones, and the two agree.
        monkeypatch.setenv("REPRO_CACHE_KERNEL", session)
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        python = analyze_wcet(acfg, tiny_cache, timing)
        dense = AnalysisPipeline(tiny_cache, timing).analyze(
            loop_program
        ).wcet
        for domain in ("must", "may", "persistence"):
            assert type(getattr(python.cache, domain)) is DataflowResult
            assert isinstance(getattr(dense.cache, domain), DenseDataflowResult)
        assert python.tau_w == dense.tau_w
        assert python.cache.classifications == dense.cache.classifications

    def test_unknown_backend_rejected(self, loop_program, tiny_cache, timing):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        with pytest.raises(AnalysisError):
            analyze_wcet(acfg, tiny_cache, timing, backend="magic")

    def test_miss_rate_in_bounds(self, loop_program, tiny_cache, timing):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        result = analyze_wcet(acfg, tiny_cache, timing)
        assert 0.0 <= result.wcet_miss_rate <= 1.0
        assert result.wcet_path_fetches > 0

    def test_bigger_cache_never_worse(self, thrash_program, timing):
        from repro.cache.config import CacheConfig

        taus = []
        for capacity in (256, 1024, 4096):
            config = CacheConfig(2, 16, capacity)
            acfg = build_acfg(thrash_program, block_size=16)
            taus.append(analyze_wcet(acfg, config, timing).tau_w)
        assert taus[0] >= taus[1] >= taus[2]

    def test_persistence_tightens_the_bound(self, timing, big_cache):
        b = ProgramBuilder("p")
        with b.loop(bound=20):
            b.code(2)
            with b.if_then(taken_prob=0.5):
                b.code(8)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=big_cache.block_size)
        loose = analyze_wcet(acfg, big_cache, timing, with_persistence=False)
        tight = analyze_wcet(acfg, big_cache, timing, with_persistence=True)
        assert tight.tau_w < loose.tau_w

    def test_persistent_blocks_charged_once(self, timing, big_cache):
        b = ProgramBuilder("p")
        with b.loop(bound=20):
            b.code(2)
            with b.if_then(taken_prob=0.5):
                b.code(8)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=big_cache.block_size)
        result = analyze_wcet(acfg, big_cache, timing)
        assert result.persistent_charged_blocks
        assert result.persistence_penalty == len(
            result.persistent_charged_blocks
        ) * float(timing.miss_penalty_cycles)

    def test_misses_cache_stable(self, loop_program, tiny_cache, timing):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        result = analyze_wcet(acfg, tiny_cache, timing)
        assert result.wcet_path_misses == result.wcet_path_misses
