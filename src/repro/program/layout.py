"""Address layout: placing instructions in the memory address space.

The paper's cost model (Section 3.1) works on *memory blocks*: fixed-size
aligned chunks of the address space, each holding one or more instruction
items.  Which block an instruction lands in is what the cache sees — and
it changes every time the optimizer inserts a prefetch instruction,
because insertion shifts every later instruction by its size.  That shift
is exactly the relocation effect `rcost` (Eq. 8) accounts for.

Two classes split the concern:

* :class:`AddressLayout` — pure placement: block-by-block, in the CFG's
  layout order, starting at ``base_address``.
* :class:`MemoryMap` — the block-granular view for a given cache block
  size: ``S(r)`` (Definition 8, item -> memory block) and ``R(s)`` (block
  -> first item).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.program.cfg import ControlFlowGraph
from repro.program.instructions import Instruction


class AddressLayout:
    """Byte addresses for every instruction of a CFG.

    The layout is a snapshot: it records the CFG ``version`` it was
    computed from, and :meth:`is_stale` tells whether the CFG has been
    mutated since (after which a fresh layout must be computed).
    """

    def __init__(self, cfg: ControlFlowGraph, base_address: int = 0):
        if base_address < 0:
            raise LayoutError(f"base address must be >= 0, got {base_address}")
        self._cfg = cfg
        self.base_address = base_address
        self.version = cfg.version
        self._address_of: Dict[int, int] = {}
        self._block_start: Dict[str, int] = {}
        self._order: List[Instruction] = []
        addr = base_address
        for block in cfg.blocks:
            self._block_start[block.name] = addr
            for instr in block.instructions:
                self._address_of[instr.uid] = addr
                self._order.append(instr)
                addr += instr.size
        self.end_address = addr

    @property
    def cfg(self) -> ControlFlowGraph:
        """The CFG this layout was computed from."""
        return self._cfg

    def is_stale(self) -> bool:
        """True when the CFG changed after this layout was computed."""
        return self._cfg.version != self.version

    def address(self, uid: int) -> int:
        """Byte address of the instruction with the given uid."""
        try:
            return self._address_of[uid]
        except KeyError:
            raise LayoutError(f"instruction uid {uid} not in layout") from None

    def block_start(self, block_name: str) -> int:
        """Byte address of the first instruction of a basic block."""
        try:
            return self._block_start[block_name]
        except KeyError:
            raise LayoutError(f"block {block_name!r} not in layout") from None

    @property
    def code_size(self) -> int:
        """Total byte size of the program."""
        return self.end_address - self.base_address

    def instructions_in_order(self) -> Iterator[Instruction]:
        """All instructions in ascending address order."""
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)


class MemoryMap:
    """Block-granular view of an :class:`AddressLayout`.

    Implements the paper's Definition 8: ``S(r)`` maps an item to the
    memory block storing it, ``R(s)`` maps a memory block to its
    first-item reference (smallest address).
    """

    def __init__(self, layout: AddressLayout, block_size: int):
        if block_size <= 0 or block_size & (block_size - 1):
            raise LayoutError(
                f"memory block size must be a positive power of two, got {block_size}"
            )
        self.layout = layout
        self.block_size = block_size
        self._block_of: Dict[int, int] = {}
        self._items_of: Dict[int, List[int]] = {}
        address_of = layout._address_of
        for instr in layout.instructions_in_order():
            uid = instr.uid
            block_id = address_of[uid] // block_size
            self._block_of[uid] = block_id
            self._items_of.setdefault(block_id, []).append(uid)
        #: uid -> block as a flat table (``-1`` for absent uids), for
        #: the array gathers of :meth:`blocks_of`.
        self._table = np.full(
            max(self._block_of, default=-1) + 1, -1, dtype=np.int64
        )
        if self._block_of:
            self._table[list(self._block_of)] = list(self._block_of.values())

    def block_of(self, uid: int) -> int:
        """``S(r)``: the memory block id holding instruction ``uid``."""
        try:
            return self._block_of[uid]
        except KeyError:
            raise LayoutError(f"instruction uid {uid} not in memory map") from None

    def blocks_of(self, uids) -> np.ndarray:
        """:meth:`block_of` for a whole array of uids, as one gather."""
        uids = np.asarray(uids, dtype=np.int64)
        table = self._table
        known = (uids >= 0) & (uids < len(table))
        blocks = np.full(len(uids), -1, dtype=np.int64)
        blocks[known] = table[uids[known]]
        if len(blocks) and blocks.min() < 0:
            bad = int(uids[blocks < 0][0])
            raise LayoutError(f"instruction uid {bad} not in memory map")
        return blocks

    def first_item(self, block_id: int) -> int:
        """``R(s)``: uid of the lowest-address item in ``block_id``."""
        try:
            return self._items_of[block_id][0]
        except KeyError:
            raise LayoutError(f"memory block {block_id} holds no items") from None

    def items_in_block(self, block_id: int) -> Tuple[int, ...]:
        """All instruction uids stored in ``block_id`` (address order)."""
        return tuple(self._items_of.get(block_id, ()))

    def blocks(self) -> Tuple[int, ...]:
        """All occupied memory block ids, ascending."""
        return tuple(sorted(self._items_of))

    def address_of_block(self, block_id: int) -> int:
        """Base byte address of a memory block."""
        return block_id * self.block_size


def compute_layout(
    cfg: ControlFlowGraph,
    base_address: int = 0,
    block_size: Optional[int] = None,
) -> Tuple[AddressLayout, Optional[MemoryMap]]:
    """Convenience: compute a fresh layout (and memory map if asked).

    Args:
        cfg: The program.
        base_address: Where the code region starts.
        block_size: When given, also build the :class:`MemoryMap`.

    Returns:
        ``(layout, memory_map_or_None)``.
    """
    layout = AddressLayout(cfg, base_address)
    if block_size is None:
        return layout, None
    return layout, MemoryMap(layout, block_size)
