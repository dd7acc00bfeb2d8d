"""Unit tests for basic blocks, loops and the CFG container."""

from __future__ import annotations

import pytest

from repro.errors import LoopBoundError, ProgramModelError
from repro.program.builder import ProgramBuilder
from repro.program.cfg import (
    BasicBlock,
    BranchProfile,
    ControlFlowGraph,
    LoopInfo,
)
from repro.program.instructions import InstructionFactory, InstrKind


def _block(name: str, count: int, factory=None) -> BasicBlock:
    factory = factory or InstructionFactory()
    return BasicBlock(name, [factory.normal() for _ in range(count)])


class TestBasicBlock:
    def test_byte_size(self):
        assert _block("a", 5).byte_size == 20

    def test_insert_rejects_non_prefetch(self):
        block = _block("a", 2)
        with pytest.raises(ProgramModelError):
            block.insert(0, InstructionFactory(99).normal())

    def test_insert_prefetch_at_bounds(self):
        factory = InstructionFactory()
        block = BasicBlock("a", [factory.normal(), factory.normal()])
        block.insert(2, factory.prefetch(0))
        assert block.instructions[-1].is_prefetch
        with pytest.raises(ProgramModelError):
            block.insert(5, factory.prefetch(0))

    def test_strip_prefetches_returns_copy(self):
        factory = InstructionFactory()
        block = BasicBlock("a", [factory.normal()])
        block.insert(0, factory.prefetch(0))
        stripped = block.strip_prefetches()
        assert len(stripped) == 1
        assert len(block) == 2  # original untouched

    def test_index_of_missing_instruction(self):
        block = _block("a", 2)
        with pytest.raises(ProgramModelError):
            block.index_of(InstructionFactory(50).normal())


class TestBranchProfile:
    def test_probability_range_validated(self):
        with pytest.raises(ProgramModelError):
            BranchProfile(taken_prob=1.5)
        with pytest.raises(ProgramModelError):
            BranchProfile(taken_prob=-0.1)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ProgramModelError):
            BranchProfile(pattern=())


class TestLoopInfo:
    def test_bound_must_be_positive(self):
        with pytest.raises(LoopBoundError):
            LoopInfo("l", "h", "h", ("h",), bound=0)

    def test_sim_iterations_defaults_to_bound(self):
        info = LoopInfo("l", "h", "h", ("h",), bound=7)
        assert info.sim_iterations == 7

    def test_sim_iterations_cannot_exceed_bound(self):
        with pytest.raises(LoopBoundError):
            LoopInfo("l", "h", "h", ("h",), bound=3, sim_iterations=4)


class TestControlFlowGraph:
    def test_duplicate_block_rejected(self):
        cfg = ControlFlowGraph("p")
        cfg.add_block(_block("a", 1))
        with pytest.raises(ProgramModelError):
            cfg.add_block(_block("a", 1))

    def test_edge_to_unknown_block_rejected(self):
        cfg = ControlFlowGraph("p")
        cfg.add_block(_block("a", 1))
        with pytest.raises(ProgramModelError):
            cfg.add_edge("a", "missing")

    def test_duplicate_edge_rejected(self):
        cfg = ControlFlowGraph("p")
        cfg.add_block(_block("a", 1, cfg.factory))
        cfg.add_block(_block("b", 1, cfg.factory))
        cfg.add_edge("a", "b")
        with pytest.raises(ProgramModelError):
            cfg.add_edge("a", "b")

    def test_insert_and_remove_prefetch_roundtrip(self, loop_program):
        before = loop_program.instruction_count
        target = loop_program.blocks[2].instructions[0]
        prefetch = loop_program.insert_prefetch(
            loop_program.blocks[1].name, 0, target.uid
        )
        assert loop_program.instruction_count == before + 1
        assert loop_program.prefetch_count == 1
        loop_program.remove_prefetch(prefetch.uid)
        assert loop_program.instruction_count == before
        assert loop_program.prefetch_count == 0

    def test_remove_prefetch_rejects_normal_instruction(self, loop_program):
        uid = loop_program.blocks[0].instructions[0].uid
        with pytest.raises(ProgramModelError):
            loop_program.remove_prefetch(uid)

    def test_strip_prefetches(self, loop_program):
        target = loop_program.blocks[2].instructions[0]
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, target.uid)
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, target.uid)
        loop_program.strip_prefetches()
        assert loop_program.prefetch_count == 0

    def test_clone_is_deep(self, loop_program):
        clone = loop_program.clone()
        target = clone.blocks[2].instructions[0]
        clone.insert_prefetch(clone.blocks[1].name, 0, target.uid)
        assert clone.instruction_count == loop_program.instruction_count + 1
        assert loop_program.prefetch_count == 0

    def test_find_instruction(self, loop_program):
        instr = loop_program.blocks[1].instructions[0]
        block, idx = loop_program.find_instruction(instr.uid)
        assert block.name == loop_program.blocks[1].name
        assert idx == 0

    def test_find_instruction_missing(self, loop_program):
        with pytest.raises(ProgramModelError):
            loop_program.find_instruction(10_000)

    def test_loops_containing_orders_outermost_first(self, nested_program):
        inner = [
            lp for lp in nested_program.loops.values() if lp.parent is not None
        ][0]
        chain = nested_program.loops_containing(inner.header)
        assert len(chain) == 2
        assert chain[0].parent is None
        assert chain[1].name == inner.name

    def test_validate_passes_for_built_programs(self, nested_program):
        nested_program.validate()

    def test_instruction_uids_unique(self, nested_program):
        uids = [i.uid for i in nested_program.instructions()]
        assert len(uids) == len(set(uids))
