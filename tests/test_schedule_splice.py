"""Splicing a kernel schedule == compiling it from scratch.

A candidate program's :class:`~repro.cache.kernel.KernelSchedule` is
derived from its base's: steps ending below the splice's first changed
rid are reused and only the suffix is compiled.  These tests prove the
spliced schedule equal, field by field, to a full compile of the
rebuilt ACFG — over Mälardalen members, generated programs, chains of
splices and locked blocks — and that ``differential`` mode catches a bad
schedule splice.  They also pin the MRU elision (a segment never
replays an access to the column its previous access touched, and the
elided plan reaches the python kernel's fixpoint state for state), the
typed universe-outgrown probe, the observability attributes, and the
locked-block path of the optimizer under the differential oracle, with
``analyze_wcet`` on the final program reaching the same outcome.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.pipeline as pipeline_module
from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.wcet import analyze_wcet
from repro.bench.generator import random_program
from repro.bench.registry import load
from repro.cache.abstract import MayState, MustState
from repro.cache.classify import propagate
from repro.cache.config import CacheConfig
from repro.cache.kernel import (
    BlockUniverse,
    KernelSchedule,
    SegmentStep,
    propagate_kernel_batch,
    schedule_differences,
)
from repro.cache.persistence import PersistenceState
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.errors import AnalysisError, UniverseOutgrown
from repro.obs.trace import Tracer, activate_tracer, use_span
from repro.program.acfg import build_acfg, splice_insertion

BLOCK_SIZE = 16
CONFIG = CacheConfig(1, 16, 256)  # the paper's k1
TIMING = cacti_model(CONFIG, technology("45nm")).timing_model()


def _heaviest_blocks(cfg, count):
    """The ``count`` memory blocks with the most worst-case executions."""
    acfg = build_acfg(cfg, BLOCK_SIZE)
    weights = {}
    for rid in acfg.ref_rids:
        block = acfg.block_of(rid)
        weights[block] = weights.get(block, 0) + acfg.multiplier[rid]
    ranked = sorted(weights, key=lambda block: (-weights[block], block))
    return frozenset(ranked[:count])


def _splice_chain(cfg, rng, count, locked=frozenset()):
    """``count`` chained random prefetch insertions; after each, the
    spliced schedule must equal a full compile of the rebuilt ACFG."""
    acfg = build_acfg(cfg, BLOCK_SIZE)
    universe = BlockUniverse.for_acfg(acfg, CONFIG, headroom=64)
    schedule = KernelSchedule(acfg, universe, locked)
    uids = [instr.uid for instr in cfg.instructions()]
    reused = 0
    for _ in range(count):
        block_name = rng.choice(sorted({v.block_name for v in acfg.ref_vertices()}))
        index = rng.randint(0, len(cfg.block(block_name).instructions))
        cfg.insert_prefetch(block_name, index, rng.choice(uids))
        acfg, first_changed = splice_insertion(acfg, cfg, block_name, index)
        schedule = KernelSchedule(
            acfg, universe, locked, base=schedule, first_changed=first_changed
        )
        full = KernelSchedule(build_acfg(cfg, BLOCK_SIZE), universe, locked)
        assert schedule_differences(schedule, full) == []
        assert len(schedule.steps) == len(full.steps)
        reused += schedule.steps_reused
    return reused


class TestScheduleSplice:
    @pytest.mark.parametrize("program", ["fdct", "ndes", "adpcm", "crc"])
    def test_malardalen_chains(self, program):
        assert _splice_chain(load(program), random.Random(program), 8) > 0

    @pytest.mark.parametrize("program", ["ndes", "matmult"])
    def test_with_locked_blocks(self, program):
        cfg = load(program)
        _splice_chain(cfg, random.Random(7), 6, _heaviest_blocks(cfg, 4))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_programs(self, seed):
        cfg = random_program(seed, target_size=120, max_depth=3)
        _splice_chain(cfg, random.Random(seed), 5)

    def test_foreign_universe_compiles_in_full(self):
        cfg = load("ndes")
        acfg = build_acfg(cfg, BLOCK_SIZE)
        first = BlockUniverse.for_acfg(acfg, CONFIG, headroom=8)
        base = KernelSchedule(acfg, first, frozenset())
        cfg.insert_prefetch(cfg.blocks[3].name, 1, cfg.blocks[0].instructions[0].uid)
        spliced, first_changed = splice_insertion(acfg, cfg, cfg.blocks[3].name, 1)
        other = BlockUniverse.for_acfg(spliced, CONFIG, headroom=8)
        schedule = KernelSchedule(
            spliced, other, frozenset(), base=base, first_changed=first_changed
        )
        assert schedule.steps_reused == 0
        full = KernelSchedule(build_acfg(cfg, BLOCK_SIZE), other, frozenset())
        assert schedule_differences(schedule, full) == []


@pytest.mark.slow
class TestScheduleSpliceProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        edits=st.integers(min_value=1, max_value=6),
        size=st.sampled_from([40, 120, 300]),
        locked=st.integers(min_value=0, max_value=4),
    )
    def test_random_programs(self, seed, edits, size, locked):
        cfg = random_program(seed, target_size=size, max_depth=3)
        _splice_chain(
            cfg, random.Random(seed ^ edits), edits,
            _heaviest_blocks(cfg, locked),
        )


class TestMruElision:
    @pytest.mark.parametrize("program", ["fdct", "adpcm"])
    def test_no_step_replays_its_previous_column(self, program):
        acfg = build_acfg(load(program), BLOCK_SIZE)
        schedule = KernelSchedule(
            acfg, BlockUniverse.for_acfg(acfg, CONFIG), frozenset()
        )
        raw = 0
        for rid in acfg.ref_rids:
            raw += 1 + (acfg.target_block_or_none(rid) is not None)
        kept = 0
        for step in schedule.steps:
            cols = [col for _, col, _, _ in step.ops]
            assert all(a != b for a, b in zip(cols, cols[1:]))
            kept += len(cols)
        assert schedule.accesses_elided == raw - kept > kept

    @pytest.mark.parametrize(
        "program,locked", [("fdct", 0), ("ndes", 4), ("crc", 2)]
    )
    def test_elided_plan_reaches_the_python_fixpoint(self, program, locked):
        cfg = load(program)
        blocks = _heaviest_blocks(cfg, locked)
        acfg = build_acfg(cfg, BLOCK_SIZE)
        schedule = KernelSchedule(
            acfg, BlockUniverse.for_acfg(acfg, CONFIG), blocks
        )
        dense = propagate_kernel_batch(
            schedule, ("must", "may", "persistence")
        )
        for name, initial in (
            ("must", MustState(CONFIG)),
            ("may", MayState(CONFIG)),
            ("persistence", PersistenceState(CONFIG)),
        ):
            oracle = propagate(acfg, CONFIG, initial, blocks or None)
            for rid in range(len(acfg)):
                assert dense[name].in_states[rid] == oracle.in_states[rid]
                assert dense[name].out_states[rid] == oracle.out_states[rid]


class TestUniverseProbe:
    def test_outgrown_universe_raises_the_typed_error(self):
        acfg = build_acfg(load("ndes"), BLOCK_SIZE)
        full = BlockUniverse.for_acfg(acfg, CONFIG)
        narrow = BlockUniverse(CONFIG, full.base_block, full.width - 1)
        with pytest.raises(UniverseOutgrown):
            KernelSchedule(acfg, narrow, frozenset())
        assert issubclass(UniverseOutgrown, AnalysisError)

    def test_pipeline_regrows_an_outgrown_universe(self):
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        base = pipeline.analyze(cfg, with_may=False)
        universe = pipeline._universe
        pipeline._universe = BlockUniverse(CONFIG, universe.base_block, 1)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        candidate = pipeline.analyze(cfg, with_may=False, base=base, edit=edit)
        assert pipeline._universe.width > 1
        assert candidate.artifacts.schedule.universe is pipeline._universe

    def test_other_compiler_errors_are_not_swallowed(self, monkeypatch):
        real = pipeline_module.KernelSchedule

        def failing(acfg, universe, locked_blocks, base=None,
                    first_changed=0):
            if base is not None:
                raise AnalysisError("broken splice")
            return real(acfg, universe, locked_blocks)

        monkeypatch.setattr(pipeline_module, "KernelSchedule", failing)
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        base = pipeline.analyze(cfg, with_may=False)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        with pytest.raises(AnalysisError, match="broken splice"):
            pipeline.analyze(cfg, with_may=False, base=base, edit=edit)


class TestDifferentialSchedule:
    def test_differential_mode_catches_a_bad_schedule_splice(
        self, monkeypatch
    ):
        real = pipeline_module.KernelSchedule

        def corrupted(acfg, universe, locked_blocks, base=None,
                      first_changed=0):
            schedule = real(acfg, universe, locked_blocks, base=base,
                            first_changed=first_changed)
            if base is not None:
                step = next(
                    s for s in schedule.steps[schedule.steps_reused:] if s.ops
                )
                schedule.steps[step.index] = SegmentStep(
                    step.index, step.start, step.end, step.preds,
                    step.back_srcs, step.deps, step.ops[:-1], step.elided,
                )
            return schedule

        monkeypatch.setattr(pipeline_module, "KernelSchedule", corrupted)
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING, differential=True)
        base = pipeline.analyze(cfg, with_may=False)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        with pytest.raises(AnalysisError, match="spliced kernel schedule"):
            pipeline.analyze(cfg, with_may=False, base=base, edit=edit)


def _traced(fn):
    """Run ``fn`` under a sampled root span; return (result, spans)."""
    spans = []
    tracer = Tracer(sample=1.0, sink=spans.append)
    with activate_tracer(tracer):
        root = tracer.start_span("test", root=True)
        with use_span(root):
            result = fn()
        root.end()
    return result, spans


class TestObservability:
    def test_spans_carry_schedule_and_elision_counts(self):
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        base = pipeline.analyze(cfg, with_may=False)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        candidate, spans = _traced(
            lambda: pipeline.analyze(cfg, with_may=False, base=base, edit=edit)
        )
        schedule = candidate.artifacts.schedule
        (acfg_span,) = [s for s in spans if s.name == "pipeline.acfg"]
        assert acfg_span.attributes["steps"] == len(schedule.steps)
        assert acfg_span.attributes["steps_reused"] == schedule.steps_reused > 0
        (fixpoint_span,) = [s for s in spans if s.name == "pipeline.fixpoint"]
        assert fixpoint_span.attributes["accesses_elided"] == (
            schedule.accesses_elided
        ) > 0

    def test_untraced_path_computes_no_counts(self, monkeypatch):
        def forbidden(schedule):
            raise AssertionError("elision count read without tracing")

        monkeypatch.setattr(
            KernelSchedule, "accesses_elided", property(forbidden)
        )
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        base = pipeline.analyze(cfg, with_may=False)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        pipeline.analyze(cfg, with_may=False, base=base, edit=edit)


class TestLockedDifferential:
    """The locked-block optimizer path under the differential oracle:
    every analysis checked against a cold run of the python oracle (and
    every spliced ACFG and schedule against a rebuild), with
    ``analyze_wcet`` on the final program reaching the same outcome."""

    @pytest.mark.parametrize("program", ["crc", "matmult", "jfdctint", "fdct"])
    def test_both_kernels_agree(self, program):
        locked = _heaviest_blocks(load(program), 4)
        options = OptimizerOptions(max_evaluations=15, locked_blocks=locked)
        pipeline = AnalysisPipeline.for_options(
            CONFIG, TIMING, options, differential=True
        )
        optimized, report = optimize(
            load(program), CONFIG, TIMING, options=options, pipeline=pipeline,
        )
        stats = pipeline.stats
        assert stats.delta_runs > 0
        assert stats.differential_checks == stats.delta_runs + stats.cold_runs
        oracle = analyze_wcet(
            build_acfg(optimized, CONFIG.block_size), CONFIG, TIMING,
            locked_blocks=locked,
        )
        assert (oracle.tau_w, oracle.wcet_path_misses) == (
            report.tau_final, report.misses_final
        )
