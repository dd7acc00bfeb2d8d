"""Full-pipeline equivalence of the python oracle and the dense kernel.

The dense (vectorized) kernel's contract is bit-identity end to end:
not just per-state (see test_cache_differential.py) but through the
whole analysis stack — fixpoint states, classifications, τ_w, accepted
prefetches (Λ placement), and the resulting energy ratios.  The python
side is the oracle (``analyze_cache``/``analyze_wcet``), the dense side
an :class:`AnalysisPipeline`.  Optimizer and use-case runs go through a
``differential=True`` pipeline, which checks every analysis the
optimizer consumes against ``analyze_wcet``.
A golden corpus under ``tests/data/kernel_golden/`` pins the serialized
fixpoint states of a few program/config points so a regression in either
kernel (or in the shared encoding) is caught even if both kernels drift
together relative to history.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.wcet import analyze_wcet
from repro.bench.registry import load
from repro.cache.abstract import MayState, MustState
from repro.cache.classify import analyze_cache
from repro.cache.config import TABLE2
from repro.cache.persistence import PersistenceState
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.experiments.usecase import (
    UseCase,
    pipeline_for_usecase,
    run_usecase,
)
from repro.program.acfg import build_acfg

KERNELS = ("python", "vectorized")

#: Tier-1 matrix: three Mälardalen programs spanning two orders of
#: magnitude in ACFG size, against a direct-mapped and an associative
#: Table 2 point.
PROGRAMS = ("bs", "crc", "ndes")
CONFIG_IDS = ("k1", "k15")

GOLDEN_DIR = Path(__file__).parent / "data" / "kernel_golden"


def _timing(config):
    return cacti_model(config, technology("45nm")).timing_model()


# ----------------------------------------------------------------------
# canonical state serialization (shared with the golden corpus)
# ----------------------------------------------------------------------
def _state_repr(state) -> str:
    """A canonical, human-diffable rendering of one abstract state."""
    if state is None:
        return "unreachable"
    if isinstance(state, PersistenceState):
        parts = []
        for set_index, pairs in sorted(state._sets.items()):
            if pairs:
                parts.append(
                    f"{set_index}:"
                    + ",".join(f"{block}@{age}" for block, age in pairs)
                )
        return "P{" + " ".join(parts) + "}"
    tag = "M" if isinstance(state, MustState) else "Y"
    parts = []
    for set_index in sorted(state.touched_sets()):
        ages = []
        for age, entry in enumerate(state.lines(set_index)):
            if entry:
                ages.append(f"{age}=" + "|".join(map(str, sorted(entry))))
        if ages:
            parts.append(f"{set_index}:" + ",".join(ages))
    return tag + "{" + " ".join(parts) + "}"


def serialize_analysis(acfg, analysis) -> str:
    """Serialize classifications and all fixpoint states canonically.

    The oracle and the pipeline must reproduce this text byte for byte;
    the golden corpus stores it verbatim.
    """
    lines = ["[classifications]"]
    for rid in range(len(acfg)):
        cls = analysis.classifications[rid]
        lines.append(f"{rid} {cls.name if cls is not None else '-'}")
    for domain in ("must", "may", "persistence"):
        dataflow = getattr(analysis, domain)
        for direction in ("in", "out"):
            lines.append(f"[{domain}.{direction}]")
            states = (
                dataflow.in_states if direction == "in"
                else dataflow.out_states
            )
            for rid, state in enumerate(states):
                lines.append(f"{rid} {_state_repr(state)}")
    return "\n".join(lines) + "\n"


def _analyze(program: str, config_id: str, kernel: str):
    """The cold L1 analysis on one kernel: the python oracle, or a fresh
    pipeline (the dense kernel's only home)."""
    config = TABLE2[config_id]
    if kernel == "python":
        acfg = build_acfg(load(program), config.block_size, 0)
        return acfg, analyze_cache(acfg, config)
    pipeline = AnalysisPipeline(config, _timing(config))
    wcet = pipeline.analyze(load(program)).wcet
    return wcet.acfg, wcet.cache


# ----------------------------------------------------------------------
# analysis-level bit-identity
# ----------------------------------------------------------------------
class TestAnalysisBitIdentity:
    @pytest.mark.parametrize("config_id", CONFIG_IDS)
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_analyze_cache_identical(self, program, config_id):
        acfg, py = _analyze(program, config_id, "python")
        _, vec = _analyze(program, config_id, "vectorized")
        assert py.classifications == vec.classifications
        for domain in ("must", "may", "persistence"):
            py_df = getattr(py, domain)
            vec_df = getattr(vec, domain)
            for rid in range(len(acfg)):
                assert py_df.in_states[rid] == vec_df.in_states[rid], (
                    f"{program}/{config_id} {domain} in-state differs at "
                    f"rid {rid}"
                )
                assert py_df.out_states[rid] == vec_df.out_states[rid]

    @pytest.mark.parametrize("program", PROGRAMS)
    def test_states_share_interning_identity(self, program):
        """Cross-kernel states are not merely equal — they hash equal
        and intern together (the shared hash-consing table contract)."""
        _, py = _analyze(program, "k1", "python")
        _, vec = _analyze(program, "k1", "vectorized")
        for domain in ("must", "may", "persistence"):
            for a, b in zip(
                getattr(py, domain).in_states, getattr(vec, domain).in_states
            ):
                if a is None or b is None:
                    assert a is None and b is None
                    continue
                assert a == b and hash(a) == hash(b)
                assert a.domain_tag == b.domain_tag
                assert len({a, b}) == 1

    @pytest.mark.parametrize("config_id", CONFIG_IDS)
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_wcet_identical(self, program, config_id):
        config = TABLE2[config_id]
        timing = _timing(config)
        cfg = load(program)
        py = analyze_wcet(build_acfg(cfg, config.block_size), config, timing)
        vec = AnalysisPipeline(config, timing).analyze(cfg).wcet
        assert py.tau_w == vec.tau_w
        assert py.t_w == vec.t_w
        assert py.solution.objective == vec.solution.objective
        assert py.persistent_charged_blocks == vec.persistent_charged_blocks
        assert py.latency_guarded == vec.latency_guarded


# ----------------------------------------------------------------------
# optimizer- and energy-level bit-identity
# ----------------------------------------------------------------------
def _optimize(program: str, config_id: str, differential: bool):
    config = TABLE2[config_id]
    timing = _timing(config)
    opts = OptimizerOptions()
    pipeline = AnalysisPipeline.for_options(
        config, timing, opts, differential=differential
    )
    optimized, report = optimize(
        load(program), config, timing, opts, pipeline=pipeline
    )
    return optimized, report, pipeline.stats


def _assert_checked_everywhere(stats):
    """Differential mode raised on no analysis, and checked every one."""
    assert stats.differential_checks > 0
    assert stats.differential_checks == stats.delta_runs + stats.cold_runs


def _assert_reports_identical(left, right):
    assert left.tau_original == right.tau_original
    assert left.tau_final == right.tau_final
    assert left.misses_original == right.misses_original
    assert left.misses_final == right.misses_final
    assert left.static_instructions_final == right.static_instructions_final
    assert left.inserted == right.inserted
    assert left.candidates_evaluated == right.candidates_evaluated
    assert left.passes == right.passes


def _assert_optimization_checked(program: str, config_id: str):
    """The optimizer on a differential pipeline: every analysis it reads
    is the oracle's, the end points are ``analyze_wcet``'s, and the
    report equals a plain dense run's."""
    optimized, checked, stats = _optimize(program, config_id, True)
    _assert_checked_everywhere(stats)
    _, plain, _ = _optimize(program, config_id, False)
    _assert_reports_identical(checked, plain)
    config = TABLE2[config_id]
    for cfg, tau, misses in (
        (load(program), checked.tau_original, checked.misses_original),
        (optimized, checked.tau_final, checked.misses_final),
    ):
        oracle = analyze_wcet(
            build_acfg(cfg, config.block_size), config, _timing(config)
        )
        assert (oracle.tau_w, oracle.wcet_path_misses) == (tau, misses)
    return checked


class TestOptimizeBitIdentity:
    def test_ndes_k1_optimization_identical(self):
        report = _assert_optimization_checked("ndes", "k1")
        assert report.prefetch_count > 0  # a non-trivial witness

    def test_ndes_usecase_ratios_identical(self):
        """WCET, ACET and energy ratios — the paper's three inequations —
        of a use case whose every analysis is checked against the oracle
        equal a plain dense run's."""
        case = UseCase("ndes", "k1", "45nm")
        opts = OptimizerOptions()
        plain = pipeline_for_usecase(case, opts)
        pipeline = AnalysisPipeline.for_options(
            case.cache_config(), plain.timing, opts, differential=True
        )
        checked = run_usecase(case, options=opts, pipeline=pipeline)
        _assert_checked_everywhere(pipeline.stats)
        vec = run_usecase(case, options=opts, pipeline=plain)
        assert checked.report.prefetch_count > 0
        assert checked.wcet_ratio == vec.wcet_ratio
        assert checked.acet_ratio == vec.acet_ratio
        assert checked.energy_ratio == vec.energy_ratio
        assert checked.energy_ratio_paper_mode == vec.energy_ratio_paper_mode
        assert checked.report.inserted == vec.report.inserted


@pytest.mark.slow
class TestLongSweep:
    """Wider program × configuration sweep, plus the two heaviest
    optimizer runs, excluded from tier-1 for runtime."""

    @pytest.mark.parametrize(
        "config_id", ("k1", "k8", "k15", "k22", "k30", "k36")
    )
    @pytest.mark.parametrize(
        "program", ("bs", "crc", "ndes", "fdct", "jfdctint", "adpcm")
    )
    def test_analysis_identical(self, program, config_id):
        acfg, py = _analyze(program, config_id, "python")
        _, vec = _analyze(program, config_id, "vectorized")
        assert serialize_analysis(acfg, py) == serialize_analysis(acfg, vec)

    @pytest.mark.parametrize("program,config_id",
                             (("fdct", "k1"), ("jfdctint", "k15")))
    def test_optimization_identical(self, program, config_id):
        _assert_optimization_checked(program, config_id)


# ----------------------------------------------------------------------
# golden-state regression corpus
# ----------------------------------------------------------------------
def _golden_files():
    return sorted(GOLDEN_DIR.glob("*.json"))


class TestGoldenCorpus:
    def test_corpus_not_empty(self):
        assert _golden_files(), f"no golden states under {GOLDEN_DIR}"

    @pytest.mark.parametrize(
        "path", _golden_files(), ids=lambda p: p.stem
    )
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_reproduces_golden_states(self, path, kernel):
        document = json.loads(path.read_text())
        acfg, analysis = _analyze(
            document["program"], document["config"], kernel
        )
        payload = serialize_analysis(acfg, analysis)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == document["sha256"], (
            f"{kernel} kernel diverged from golden corpus {path.name}"
        )
        assert payload == document["payload"]
