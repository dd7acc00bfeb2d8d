"""Tests for the address layout and its memory-block view."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import LayoutError
from repro.program.builder import ProgramBuilder
from repro.program.layout import AddressLayout


class TestAddressLayout:
    def test_addresses_are_contiguous(self, straight_program):
        layout = AddressLayout(straight_program)
        addresses = [
            layout.address(i.uid) for i in straight_program.instructions()
        ]
        assert addresses == list(range(0, 4 * len(addresses), 4))

    def test_base_address_offsets_everything(self, straight_program):
        layout = AddressLayout(straight_program, base_address=0x1000)
        first = next(iter(straight_program.instructions()))
        assert layout.address(first.uid) == 0x1000

    def test_negative_base_rejected(self, straight_program):
        with pytest.raises(LayoutError):
            AddressLayout(straight_program, base_address=-4)

    def test_code_size(self, straight_program):
        layout = AddressLayout(straight_program)
        assert layout.code_size == straight_program.instruction_count * 4

    def test_unknown_uid_raises(self, straight_program):
        layout = AddressLayout(straight_program)
        with pytest.raises(LayoutError):
            layout.address(424242)

    def test_insertion_shifts_downstream_addresses(self, loop_program):
        before = AddressLayout(loop_program)
        target_block = loop_program.blocks[3]
        victim = target_block.instructions[0]
        addr_before = before.address(victim.uid)
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, victim.uid)
        after = AddressLayout(loop_program)
        assert after.address(victim.uid) == addr_before + 4

    def test_insertion_preserves_upstream_addresses(self, loop_program):
        before = AddressLayout(loop_program)
        first = loop_program.blocks[0].instructions[0]
        addr_before = before.address(first.uid)
        target = loop_program.blocks[3].instructions[0]
        loop_program.insert_prefetch(loop_program.blocks[2].name, 0, target.uid)
        after = AddressLayout(loop_program)
        assert after.address(first.uid) == addr_before


    def test_membership(self, straight_program):
        layout = AddressLayout(straight_program)
        for instr in straight_program.instructions():
            assert instr.uid in layout
        assert -1 not in layout
        assert 424242 not in layout
        with pytest.raises(LayoutError):
            layout.address(-1)


class TestWithInsertion:
    """A derived layout (one shift) equals a rebuild of the edited
    program, wherever the instruction goes."""

    @pytest.mark.parametrize("where", ["block_start", "mid_block",
                                       "block_end", "program_end"])
    def test_matches_a_rebuild(self, loop_program, where):
        before = AddressLayout(loop_program, base_address=0x100)
        block = {
            "block_start": loop_program.blocks[2],
            "mid_block": loop_program.blocks[1],
            "block_end": loop_program.blocks[1],
            "program_end": loop_program.blocks[-1],
        }[where]
        instrs = block.instructions
        index = {"block_start": 0, "mid_block": len(instrs) // 2}.get(
            where, len(instrs)
        )
        if index < len(instrs):
            at = before.address(instrs[index].uid)
        else:
            at = before.address(instrs[-1].uid) + instrs[-1].size
        target = loop_program.blocks[0].instructions[0].uid
        prefetch = loop_program.insert_prefetch(block.name, index, target)
        derived = before.with_insertion(prefetch.uid, at, prefetch.size)
        rebuilt = AddressLayout(loop_program, base_address=0x100)
        assert derived.addresses.tolist() == rebuilt.addresses.tolist()
        assert derived.end_address == rebuilt.end_address
        for instr in loop_program.instructions():
            assert derived.address(instr.uid) == rebuilt.address(instr.uid)
        # the base layout is left as it was
        assert prefetch.uid not in before

    def test_rejects_a_known_uid(self, straight_program):
        layout = AddressLayout(straight_program)
        first = next(iter(straight_program.instructions()))
        with pytest.raises(LayoutError, match="already"):
            layout.with_insertion(first.uid, 0, 4)


class TestMemoryMap:
    """``S(r)``: the memory block of an item, ``address // block_size``."""

    def test_block_of_matches_address_division(self, straight_program):
        layout = AddressLayout(straight_program)
        uids = [instr.uid for instr in straight_program.instructions()]
        assert layout.blocks_of(uids, 16).tolist() == [
            layout.address(uid) // 16 for uid in uids
        ]

    def test_items_per_block_count(self, straight_program):
        layout = AddressLayout(straight_program)
        uids = [instr.uid for instr in straight_program.instructions()]
        # 16-byte blocks hold four 4-byte instructions
        sizes = Counter(layout.blocks_of(uids, 16).tolist()).values()
        assert all(size <= 4 for size in sizes)
        assert sum(sizes) == straight_program.instruction_count

    def test_block_size_must_be_power_of_two(self, straight_program):
        layout = AddressLayout(straight_program)
        with pytest.raises(LayoutError):
            layout.blocks_of([0], 24)
        with pytest.raises(LayoutError):
            layout.blocks_of([0], 0)

    def test_blocks_of_is_block_of_per_uid(self, straight_program):
        layout = AddressLayout(straight_program, base_address=0x40)
        uids = [instr.uid for instr in straight_program.instructions()]
        assert layout.blocks_of(uids, 32).tolist() == [
            (0x40 + 4 * i) // 32 for i in range(len(uids))
        ]
        with pytest.raises(LayoutError, match="uid 10000"):
            layout.blocks_of(uids + [10_000], 32)
        with pytest.raises(LayoutError, match="uid -3"):
            layout.blocks_of([-3], 32)
