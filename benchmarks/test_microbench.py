"""Micro-benchmarks of the analysis substrate.

Unlike the figure/table benches (one-shot regenerations), these measure
the throughput of the hot analysis kernels with pytest-benchmark's
normal multi-round timing — the numbers that govern how large a sweep
is affordable.
"""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.structural import solve_wcet_path
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import analyze_wcet
from repro.bench.registry import load
from repro.cache.config import CacheConfig
from repro.core.update import collect_reverse_events
from repro.program.acfg import build_acfg
from repro.sim.machine import simulate

CONFIG = CacheConfig(1, 16, 256)
TIMING = TimingModel(1, 30, 1)


@pytest.fixture(scope="module")
def adpcm_acfg():
    return build_acfg(load("adpcm"), CONFIG.block_size)


def test_perf_acfg_construction(benchmark):
    cfg = load("adpcm")
    acfg = benchmark(build_acfg, cfg, CONFIG.block_size)
    assert acfg.ref_count > 500


def _cold_analysis(cfg, with_may=True):
    """One cold analysis on the dense kernel: a fresh pipeline, so no
    segment memo carries over between rounds."""
    pipeline = AnalysisPipeline(CONFIG, TIMING)
    return pipeline.analyze(cfg, with_may=with_may).wcet


def test_perf_must_may_persistence_classification(benchmark):
    wcet = benchmark(_cold_analysis, load("adpcm"))
    assert wcet.cache.count is not None


def test_perf_wcet_analysis_must_only(benchmark):
    result = benchmark(_cold_analysis, load("adpcm"), with_may=False)
    assert result.tau_w > 0


def test_perf_path_solver(benchmark, adpcm_acfg):
    times = [2.0 if instr is not None else 0.0 for instr in adpcm_acfg.instr]
    solution = benchmark(solve_wcet_path, adpcm_acfg, times)
    assert solution.objective > 0


def test_perf_reverse_analysis(benchmark, adpcm_acfg):
    wcet = analyze_wcet(adpcm_acfg, CONFIG, TIMING, with_may=False)
    events = benchmark(
        collect_reverse_events, adpcm_acfg, CONFIG, wcet.solution
    )
    assert isinstance(events, list)


def test_perf_trace_simulation(benchmark):
    cfg = load("adpcm")
    result = benchmark(simulate, cfg, CONFIG, TIMING, 1)
    assert result.fetches > 1000
