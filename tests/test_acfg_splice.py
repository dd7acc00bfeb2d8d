"""Splicing a prefetch insertion into an ACFG == rebuilding it.

:func:`repro.program.acfg.splice_insertion` derives a candidate
program's ACFG from its base's by inserting one vertex per VIVU
instance of the edited block.  These tests prove the result equal,
field by field, to :func:`repro.program.acfg.build_acfg` on the edited
program — over Mälardalen members with loops (FIRST/REST instances) and
functions inlined at several call sites, over generated programs, for
every insertion index including the block end, for instruction and data
prefetches, and for chains of splices — and that the reported first
changed rid is the first vertex a vertex-by-vertex scan finds changed
(:func:`first_mismatch`, the oracle of the splice's report).  The
pipeline tests check that the splice is invisible in every counter and
output, and that ``differential`` mode catches a bad splice.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.pipeline as pipeline_module
from repro.analysis.pipeline import AnalysisPipeline
from repro.bench.generator import random_program
from repro.bench.registry import load
from repro.cache.config import CacheConfig
from repro.core.optimizer import OptimizerOptions, optimize
from repro.data.model import DataAccess, DataKind
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.errors import AnalysisError
from repro.obs.trace import Tracer, activate_tracer, use_span
from repro.program.acfg import (
    build_acfg,
    splice_insertion,
    structural_differences,
)

BLOCK_SIZE = 16
CONFIG = CacheConfig(1, 16, 256)  # the paper's k1
TIMING = cacti_model(CONFIG, technology("45nm")).timing_model()


def _vertex_signature(acfg):
    return [
        (
            v.rid,
            v.kind,
            None if v.instr is None else v.instr.uid,
            v.context,
            v.block_name,
            v.index_in_block,
        )
        for v in acfg.vertices
    ]


def _vertex_matches(old, new, rid):
    """Whether vertex ``rid`` is analysis-equivalent in both ACFGs.

    Compares everything the dataflow/guard/IPET equations read at this
    vertex: kind, context, instruction identity and prefetch role,
    memory blocks (own + target — these capture address-layout shifts),
    execution multiplier, and the forward predecessor list.
    """
    a = old.vertices[rid]
    b = new.vertices[rid]
    if a.kind is not b.kind or a.context != b.context:
        return False
    ia, ib = a.instr, b.instr
    if (ia is None) != (ib is None):
        return False
    if ia is not None and (
        ia.uid != ib.uid
        or ia.is_prefetch != ib.is_prefetch
        or ia.prefetch_target != ib.prefetch_target
    ):
        return False
    if (
        old._ref_block[rid] != new._ref_block[rid]
        or old._target_block[rid] != new._target_block[rid]
        or old.multiplier[rid] != new.multiplier[rid]
    ):
        return False
    return old.predecessors(rid) == new.predecessors(rid)


def first_mismatch(old, new):
    """The lowest rid whose vertex differs between two ACFGs."""
    n = min(len(old.vertices), len(new.vertices))
    return next(
        (rid for rid in range(n) if not _vertex_matches(old, new, rid)), n
    )


def assert_same_acfg(spliced, rebuilt):
    """Every field the analyses read, compared one by one."""
    assert _vertex_signature(spliced) == _vertex_signature(rebuilt)
    n = len(rebuilt.vertices)
    assert [spliced.predecessors(r) for r in range(n)] == [
        rebuilt.predecessors(r) for r in range(n)
    ]
    assert [spliced.successors(r) for r in range(n)] == [
        rebuilt.successors(r) for r in range(n)
    ]
    assert spliced.back_edges == rebuilt.back_edges
    assert spliced.multiplier == rebuilt.multiplier
    assert spliced._ref_block == rebuilt._ref_block
    assert spliced._target_block == rebuilt._target_block
    assert spliced.key_index() == rebuilt.key_index()
    assert spliced.source == rebuilt.source
    assert spliced.sink == rebuilt.sink
    assert spliced.ref_rids == rebuilt.ref_rids
    assert spliced.prefetch_rids == rebuilt.prefetch_rids
    assert spliced.run_ends() == rebuilt.run_ends()
    assert [v.rid for v in spliced.ref_vertices()] == [
        v.rid for v in rebuilt.ref_vertices()
    ]
    assert structural_differences(spliced, rebuilt) == []
    rebuilt.validate()
    spliced.validate()


def splice_and_check(cfg, base, block_name, index, prefetch_target):
    """Insert into ``cfg`` (mutated), splice from ``base``, compare with
    a rebuild, and return the spliced graph."""
    if prefetch_target is None:
        cfg.insert_data_prefetch(
            block_name, index, DataAccess(DataKind.PREFETCH, "buf")
        )
    else:
        cfg.insert_prefetch(block_name, index, prefetch_target)
    result = splice_insertion(base, cfg, block_name, index)
    assert result is not None
    spliced, first_changed = result
    rebuilt = build_acfg(cfg, BLOCK_SIZE)
    assert_same_acfg(spliced, rebuilt)
    assert first_changed == first_mismatch(base, rebuilt)
    return spliced


def _reachable_blocks(acfg):
    return sorted({v.block_name for v in acfg.ref_vertices()})


def _random_edits(cfg, base, rng, count, data_share=0.2):
    """``count`` chained random insertions, each spliced from the last."""
    acfg = base
    uids = [instr.uid for instr in cfg.instructions()]
    for _ in range(count):
        block_name = rng.choice(_reachable_blocks(acfg))
        index = rng.randint(0, len(cfg.block(block_name).instructions))
        target = None if rng.random() < data_share else rng.choice(uids)
        acfg = splice_and_check(cfg, acfg, block_name, index, target)
    return acfg


class TestSpliceMalardalen:
    """Loops, call sites and block ends on real program shapes."""

    @pytest.mark.parametrize("program", ["fdct", "adpcm", "ndes"])
    @pytest.mark.parametrize("where", ["first", "middle", "end"])
    def test_every_block(self, program, where):
        cfg = load(program)
        base = build_acfg(cfg, BLOCK_SIZE)
        target = cfg.blocks[-1].instructions[0].uid
        for block_name in _reachable_blocks(base):
            length = len(cfg.block(block_name).instructions)
            index = {"first": 0, "middle": length // 2, "end": length}[where]
            trial = cfg.clone()
            splice_and_check(trial, base, block_name, index, target)

    def test_function_called_from_several_sites(self):
        cfg = load("adpcm")
        base = build_acfg(cfg, BLOCK_SIZE)
        instances = sum(
            1
            for v in base.ref_vertices()
            if v.block_name == "filtez.bb1" and v.index_in_block == 0
        )
        assert instances == 8  # four call sites x FIRST/REST
        length = len(cfg.block("filtez.bb1").instructions)
        target = cfg.blocks[0].instructions[0].uid
        spliced = splice_and_check(cfg, base, "filtez.bb1", length, target)
        assert len(spliced.vertices) == len(base.vertices) + instances

    def test_loop_body_gets_first_and_rest_copies(self):
        cfg = load("fdct")
        base = build_acfg(cfg, BLOCK_SIZE)
        target = cfg.blocks[-1].instructions[0].uid
        spliced = splice_and_check(cfg, base, "bb1", 0, target)
        new_uid = cfg.block("bb1").instructions[0].uid
        kinds = sorted(
            el.kind
            for v in spliced.ref_vertices()
            if v.instr.uid == new_uid
            for el in v.context
        )
        assert kinds == ["F", "R"]

    @pytest.mark.parametrize("program", ["fdct", "adpcm", "ndes"])
    def test_chained_splices(self, program):
        cfg = load(program)
        base = build_acfg(cfg, BLOCK_SIZE)
        _random_edits(cfg, base, random.Random(program), count=6)

    def test_reused_uid_falls_back(self):
        cfg = load("ndes")
        base = build_acfg(cfg, BLOCK_SIZE)
        block = cfg.blocks[1]
        # A second copy of an existing uid: only the full build may
        # decide whether that is a duplicate vertex.
        block.instructions.insert(0, block.instructions[-1])
        assert splice_insertion(base, cfg, block.name, 0) is None


class TestSpliceGenerated:
    @pytest.mark.parametrize("seed", [1, 7, 23, 101])
    def test_random_programs(self, seed):
        cfg = random_program(seed, target_size=120, max_depth=3)
        base = build_acfg(cfg, BLOCK_SIZE)
        _random_edits(cfg, base, random.Random(seed), count=5)


@pytest.mark.slow
class TestSpliceGeneratedProperty:
    """Hypothesis sweep over program shapes and edit sequences."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        edits=st.integers(min_value=1, max_value=8),
        size=st.sampled_from([40, 120, 300]),
    )
    def test_random_programs(self, seed, edits, size):
        cfg = random_program(seed, target_size=size, max_depth=3)
        base = build_acfg(cfg, BLOCK_SIZE)
        _random_edits(cfg, base, random.Random(seed ^ edits), count=edits)


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


class TestPipelineSplice:
    def test_candidate_acfg_is_spliced(self):
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        base = pipeline.analyze(cfg, with_may=False)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        candidate, spans = _traced(
            lambda: pipeline.analyze(cfg, with_may=False, base=base, edit=edit)
        )
        acfg_spans = [s for s in spans if s.name == "pipeline.acfg"]
        assert [s.attributes.get("spliced") for s in acfg_spans] == [True]
        assert_same_acfg(candidate.acfg, build_acfg(cfg, BLOCK_SIZE))
        assert pipeline.stats.structural_misses == 2
        assert pipeline.stats.delta_runs == 1

    @pytest.mark.parametrize("program", ["ndes", "adpcm"])
    def test_splicing_changes_no_output_or_counter(self, program, monkeypatch):
        opts = OptimizerOptions(max_evaluations=25)
        _, spliced = optimize(load(program), CONFIG, TIMING, options=opts)

        def rebuild_and_scan(base, cfg, block_name, index):
            rebuilt = build_acfg(cfg, BLOCK_SIZE)
            return rebuilt, first_mismatch(base, rebuilt)

        monkeypatch.setattr(
            pipeline_module, "splice_insertion", rebuild_and_scan
        )
        _, rebuilt = optimize(load(program), CONFIG, TIMING, options=opts)
        assert spliced.pipeline == rebuilt.pipeline
        assert spliced.tau_final == rebuilt.tau_final
        assert spliced.misses_final == rebuilt.misses_final
        assert [
            (i.block_name, i.index, i.target_uid) for i in spliced.inserted
        ] == [(i.block_name, i.index, i.target_uid) for i in rebuilt.inserted]

    def test_no_splice_runs_cold(self, monkeypatch):
        # A base without an edit, or an edit the splice declines, is a
        # delta fallback: the candidate is built and analysed cold.
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        base = pipeline.analyze(cfg, with_may=False)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        unedited = pipeline.analyze(cfg, with_may=False, base=base)
        monkeypatch.setattr(
            pipeline_module, "splice_insertion", lambda *args: None
        )
        declined = pipeline.analyze(cfg, with_may=False, base=base, edit=edit)
        counters = pipeline.stats.counters()
        assert counters["delta_fallbacks"] == 2
        assert counters["cold_runs"] == 3
        assert counters["delta_runs"] == 0
        cold = AnalysisPipeline(CONFIG, TIMING).analyze(
            cfg, with_may=False
        )
        for result in (unedited, declined):
            assert result.wcet.tau_w == cold.wcet.tau_w
            assert (
                result.wcet.cache.classifications
                == cold.wcet.cache.classifications
            )

    def test_differential_mode_catches_a_bad_splice(self, monkeypatch):
        def corrupted(base, cfg, block_name, index):
            acfg, first_changed = splice_insertion(base, cfg, block_name, index)
            last_ref = acfg.ref_rids[-1]
            acfg._ref_block[last_ref] += 1
            return acfg, first_changed

        monkeypatch.setattr(pipeline_module, "splice_insertion", corrupted)
        cfg = load("ndes")
        pipeline = AnalysisPipeline(CONFIG, TIMING, differential=True)
        base = pipeline.analyze(cfg, with_may=False)
        edit = (cfg.blocks[3].name, 1)
        cfg.insert_prefetch(*edit, cfg.blocks[0].instructions[0].uid)
        with pytest.raises(AnalysisError, match="spliced ACFG differs"):
            pipeline.analyze(cfg, with_may=False, base=base, edit=edit)
