"""Tests for address layout and the memory-block view."""

from __future__ import annotations

import pytest

from repro.errors import LayoutError
from repro.program.builder import ProgramBuilder
from repro.program.layout import AddressLayout, MemoryMap, compute_layout


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

    def test_block_start_matches_first_instruction(self, loop_program):
        layout = AddressLayout(loop_program)
        for block in loop_program.blocks:
            if block.instructions:
                assert layout.block_start(block.name) == layout.address(
                    block.instructions[0].uid
                )

    def test_staleness_tracking(self, loop_program):
        layout = AddressLayout(loop_program)
        assert not layout.is_stale()
        target = loop_program.blocks[2].instructions[0]
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, target.uid)
        assert layout.is_stale()

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


class TestMemoryMap:
    def test_block_of_matches_address_division(self, straight_program):
        layout, mmap = compute_layout(straight_program, block_size=16)
        for instr in straight_program.instructions():
            assert mmap.block_of(instr.uid) == layout.address(instr.uid) // 16

    def test_first_item_is_lowest_address(self, straight_program):
        _, mmap = compute_layout(straight_program, block_size=16)
        for block_id in mmap.blocks():
            first = mmap.first_item(block_id)
            items = mmap.items_in_block(block_id)
            assert items[0] == first

    def test_items_per_block_count(self, straight_program):
        _, mmap = compute_layout(straight_program, block_size=16)
        # 16-byte blocks hold four 4-byte instructions
        sizes = [len(mmap.items_in_block(b)) for b in mmap.blocks()]
        assert all(size <= 4 for size in sizes)
        assert sum(sizes) == straight_program.instruction_count

    def test_block_size_must_be_power_of_two(self, straight_program):
        layout = AddressLayout(straight_program)
        with pytest.raises(LayoutError):
            MemoryMap(layout, 24)
        with pytest.raises(LayoutError):
            MemoryMap(layout, 0)

    def test_unknown_block_raises(self, straight_program):
        _, mmap = compute_layout(straight_program, block_size=16)
        with pytest.raises(LayoutError):
            mmap.first_item(10_000)

    def test_blocks_of_is_block_of_per_uid(self, straight_program):
        _, mmap = compute_layout(straight_program, block_size=16)
        uids = [instr.uid for instr in straight_program.instructions()]
        assert mmap.blocks_of(uids).tolist() == [
            mmap.block_of(uid) for uid in uids
        ]
        with pytest.raises(LayoutError, match="uid 10000"):
            mmap.blocks_of(uids + [10_000])

    def test_address_of_block(self, straight_program):
        _, mmap = compute_layout(straight_program, block_size=32)
        assert mmap.address_of_block(3) == 96

    def test_compute_layout_without_block_size(self, straight_program):
        layout, mmap = compute_layout(straight_program)
        assert mmap is None
        assert layout.code_size > 0
