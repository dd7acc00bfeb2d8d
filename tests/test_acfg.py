"""Tests for ACFG construction (VIVU expansion, joins, back edges)."""

from __future__ import annotations

import pytest

from repro.errors import ProgramModelError
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder
from repro.program.vivu import FIRST, REST


def contexts_of(acfg, uid):
    return [
        acfg.context[rid] for rid in acfg.ref_rids
        if acfg.instr[rid].uid == uid
    ]


class TestTopology:
    def test_poles(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        assert acfg.source == 0 and acfg.instr[acfg.source] is None
        assert acfg.sink == len(acfg) - 1 and acfg.instr[acfg.sink] is None
        assert not acfg.is_join(acfg.source)
        assert not acfg.is_join(acfg.sink)

    def test_edges_ascend_rids(self, nested_program):
        acfg = build_acfg(nested_program, block_size=16)
        for rid in range(len(acfg)):
            for succ in acfg.successors(rid):
                assert succ > rid

    def test_every_vertex_reachable(self, nested_program):
        acfg = build_acfg(nested_program, block_size=16)
        for rid in range(1, len(acfg)):
            assert acfg.predecessors(rid)

    def test_predecessor_successor_symmetry(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        for rid in range(len(acfg)):
            for succ in acfg.successors(rid):
                assert rid in acfg.predecessors(succ)

    def test_straight_line_is_a_chain(self, straight_program):
        acfg = build_acfg(straight_program, block_size=16)
        for rid in range(len(acfg) - 1):
            assert list(acfg.successors(rid)) == [rid + 1]


class TestVIVUExpansion:
    def test_loop_body_has_first_and_rest_contexts(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        loop = next(iter(loop_program.loops.values()))
        header_instr = loop_program.block(loop.header).instructions[0]
        ctxs = contexts_of(acfg, header_instr.uid)
        kinds = sorted(el.kind for ctx in ctxs for el in ctx)
        assert kinds == [FIRST, REST]

    def test_bound_one_loop_has_no_rest_instance(self):
        b = ProgramBuilder("p")
        with b.loop(bound=1):
            b.code(2)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        assert acfg.back_edges == []
        loop = next(iter(cfg.loops.values()))
        header_instr = cfg.block(loop.header).instructions[0]
        assert len(contexts_of(acfg, header_instr.uid)) == 1

    def test_back_edges_target_rest_entry_join(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        assert acfg.back_edges
        for src, dst in acfg.back_edges:
            assert acfg.is_join(dst)
            assert src > dst

    def test_nested_loops_multiply_contexts(self, nested_program):
        acfg = build_acfg(nested_program, block_size=16)
        inner = [lp for lp in nested_program.loops.values() if lp.parent][0]
        inner_instr = nested_program.block(inner.header).instructions[0]
        # inner body: (outer F/R) x (inner F/R) = 4 contexts
        assert len(contexts_of(acfg, inner_instr.uid)) == 4

    def test_multiplier_uses_bound_minus_one(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        loop = next(iter(loop_program.loops.values()))
        header_instr = loop_program.block(loop.header).instructions[0]
        mults = sorted(
            acfg.multiplier[rid]
            for rid in acfg.ref_rids
            if acfg.instr[rid].uid == header_instr.uid
        )
        assert mults == [1, loop.bound - 1]

    def test_function_inlined_per_call_site(self):
        b = ProgramBuilder("p")
        with b.function("f"):
            b.code(2)
        b.call("f")
        b.code(1)
        b.call("f")
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        fn_instr = cfg.block(cfg.functions["f"].entry_block).instructions[0]
        assert len(contexts_of(acfg, fn_instr.uid)) == 2

    def test_ref_count_excludes_poles_and_joins(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        non_refs = sum(1 for instr in acfg.instr if instr is None)
        assert acfg.ref_count + non_refs == len(acfg)


class TestBlockMapping:
    def test_block_of_consistent_with_memory_map(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        for rid in acfg.ref_rids:
            assert acfg.block_of(rid) == acfg.layout.address(
                acfg.instr[rid].uid
            ) // acfg.block_size

    def test_block_of_join_raises(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        join = next(rid for rid in range(len(acfg)) if acfg.is_join(rid))
        with pytest.raises(ProgramModelError):
            acfg.block_of(join)

    def test_prefetch_target_block(self, loop_program):
        target = loop_program.blocks[3].instructions[0]
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, target.uid)
        acfg = build_acfg(loop_program, block_size=16)
        pf = next(rid for rid in acfg.ref_rids if acfg.instr[rid].is_prefetch)
        assert acfg.prefetch_target_block(pf) == acfg.layout.address(
            target.uid
        ) // acfg.block_size

    def test_prefetch_target_on_normal_vertex_raises(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        ref = acfg.ref_rids[0]
        with pytest.raises(ProgramModelError):
            acfg.prefetch_target_block(ref)

    def test_by_key_lookup(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        rid = acfg.ref_rids[0]
        assert acfg.by_key(acfg.instr[rid].uid, acfg.context[rid]) == rid
        assert acfg.by_key(99999, ()) is None

    def test_missing_structure_rejected(self, loop_program):
        loop_program.structure = None
        with pytest.raises(ProgramModelError):
            build_acfg(loop_program, block_size=16)
