"""Tests for insertion-point mapping and relocation accounting."""

from __future__ import annotations

import pytest

from repro.analysis.wcet import analyze_wcet
from repro.core.relocation import (
    InsertionPoint,
    insertion_point_after,
    moved_blocks,
    relocation_cost,
)
from repro.errors import OptimizationError
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder
from repro.program.instructions import InstrKind
from repro.program.layout import AddressLayout


class TestInsertionPoint:
    def test_mid_block_inserts_right_after(self, straight_program):
        acfg = build_acfg(straight_program, block_size=16)
        rid = acfg.ref_rids[5]
        point = insertion_point_after(acfg, rid)
        assert point == InsertionPoint(
            acfg.block_name[rid], acfg.index_in_block[rid] + 1
        )

    def test_after_branch_moves_to_next_block(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        branch = next(
            rid
            for rid in acfg.ref_rids
            if acfg.instr[rid].kind is InstrKind.BRANCH
        )
        point = insertion_point_after(acfg, branch)
        assert point is not None
        assert point.block_name != acfg.block_name[branch] or point.index == 0

    def test_end_of_program_returns_none(self, straight_program):
        acfg = build_acfg(straight_program, block_size=16)
        last_ref = acfg.ref_rids[-1]
        assert acfg.instr[last_ref].kind is InstrKind.RETURN
        assert insertion_point_after(acfg, last_ref) is None

    def test_non_ref_rejected(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        with pytest.raises(OptimizationError):
            insertion_point_after(acfg, acfg.source)


class TestMovedBlocks:
    def test_insertion_moves_downstream_blocks_only(self, loop_program):
        old_layout = AddressLayout(loop_program)
        old_uids = [instr.uid for instr in loop_program.instructions()]
        target = loop_program.blocks[4].instructions[0]
        edited = loop_program.blocks[2]
        insertion_addr = old_layout.address(edited.instructions[0].uid)
        prefetch = loop_program.insert_prefetch(edited.name, 0, target.uid)
        new_layout = AddressLayout(loop_program)
        moved = moved_blocks(old_layout, new_layout, 16)
        assert prefetch.uid not in moved
        for uid in old_uids:
            shifted = old_layout.address(uid) >= insertion_addr
            crossed = (old_layout.address(uid) // 16
                       != new_layout.address(uid) // 16)
            assert (uid in moved) == (shifted and crossed)
        assert moved
        # a removed instruction is not reported either way round
        assert prefetch.uid not in moved_blocks(new_layout, old_layout, 16)

    def test_no_change_no_moves(self, loop_program):
        layout = AddressLayout(loop_program)
        assert moved_blocks(layout, layout, 16) == frozenset()


class TestRelocationCost:
    def test_rcost_measures_other_references_only(self, tiny_cache, timing):
        b = ProgramBuilder("p")
        b.code(30)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=tiny_cache.block_size)
        before = analyze_wcet(acfg, tiny_cache, timing)
        target = cfg.blocks[1].instructions[20]
        prefetch = cfg.insert_prefetch(cfg.blocks[1].name, 2, target.uid)
        acfg2 = build_acfg(cfg, block_size=tiny_cache.block_size)
        after = analyze_wcet(acfg2, tiny_cache, timing)
        rcost = relocation_cost(before, after, prefetch.uid, target.uid)
        # total delta = rcost + (prefetch + target contributions delta)
        def part(result, uids):
            return sum(
                result.tau_of(rid)
                for rid in result.acfg.ref_rids
                if result.acfg.instr[rid].uid in uids
            )

        delta_total = after.solution.objective - before.solution.objective
        delta_special = part(after, {prefetch.uid, target.uid}) - part(
            before, {prefetch.uid, target.uid}
        )
        assert rcost == pytest.approx(delta_total - delta_special)
