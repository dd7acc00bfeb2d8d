"""Address layout: placing instructions in the memory address space.

The paper's cost model (Section 3.1) works on *memory blocks*: fixed-size
aligned chunks of the address space, each holding one or more instruction
items.  Which block an instruction lands in is what the cache sees — and
it changes every time the optimizer inserts a prefetch instruction,
because insertion shifts every later instruction by its size.  That shift
is exactly the relocation effect `rcost` (Eq. 8) accounts for.

:class:`AddressLayout` places the instructions block by block, in the
CFG's layout order, starting at ``base_address``, and keeps the result
as one uid-indexed address array.  The memory block of an item,
``S(r)`` (Definition 8), is its ``address // block_size``
(:meth:`AddressLayout.blocks_of`); no method computes the inverse map
``R(s)``, which no analysis reads.  One insertion derives its layout
from the old one by a shift (:meth:`AddressLayout.with_insertion`)
instead of a walk of the program.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import LayoutError
from repro.program.cfg import ControlFlowGraph


class AddressLayout:
    """Byte addresses for every instruction of a CFG.

    ``addresses[uid]`` is the byte address of the instruction with that
    uid, ``-1`` for a uid not in the program: a cumulative sum of the
    instruction sizes in layout order, from ``base_address``.  Treat the
    array as read-only; a layout is never mutated, a changed program
    gets a new one.
    """

    def __init__(self, cfg: ControlFlowGraph, base_address: int = 0):
        if base_address < 0:
            raise LayoutError(f"base address must be >= 0, got {base_address}")
        instrs = [instr for block in cfg.blocks for instr in block.instructions]
        view = [-1] * (max((instr.uid for instr in instrs), default=-1) + 1)
        address = base_address
        for instr in instrs:
            view[instr.uid] = address
            address += instr.size
        self._set(np.array(view, dtype=np.int64), base_address, address, view)

    def _set(
        self,
        addresses: np.ndarray,
        base_address: int,
        end_address: int,
        view: Optional[List[int]] = None,
    ) -> None:
        self.addresses = addresses
        self.base_address = base_address
        self.end_address = end_address
        #: ``addresses`` as a python list (per-instruction lookups stay
        #: off numpy scalars); a derived layout builds it on the first
        #: :meth:`address` call.
        self._address_list = view

    @property
    def code_size(self) -> int:
        """Total byte size of the program."""
        return self.end_address - self.base_address

    def __contains__(self, uid: int) -> bool:
        return 0 <= uid < len(self.addresses) and self.addresses[uid] >= 0

    def address(self, uid: int) -> int:
        """Byte address of the instruction with the given uid."""
        view = self._address_list
        if view is None:
            view = self._address_list = self.addresses.tolist()
        if 0 <= uid < len(view):
            address = view[uid]
            if address >= 0:
                return address
        raise LayoutError(f"instruction uid {uid} not in layout")

    def blocks_of(self, uids, block_size: int) -> np.ndarray:
        """``S(r)`` for a whole array of uids, as one gather: the memory
        block (``address // block_size``) holding each instruction."""
        if block_size <= 0 or block_size & (block_size - 1):
            raise LayoutError(
                f"memory block size must be a positive power of two, got {block_size}"
            )
        uids = np.asarray(uids, dtype=np.int64)
        addresses = self.addresses
        known = (uids >= 0) & (uids < len(addresses))
        found = np.full(len(uids), -1, dtype=np.int64)
        found[known] = addresses[uids[known]]
        if len(found) and found.min() < 0:
            bad = int(uids[found < 0][0])
            raise LayoutError(f"instruction uid {bad} not in layout")
        return found // block_size

    def with_insertion(self, uid: int, at: int, size: int) -> "AddressLayout":
        """The layout after inserting instruction ``uid`` (of ``size``
        bytes) at address ``at``: every address ``>= at`` moves up by
        ``size`` (Eq. 8's relocation) and ``uid`` takes ``at``."""
        if uid in self:
            raise LayoutError(f"instruction uid {uid} already in layout")
        old = self.addresses
        addresses = np.full(max(len(old), uid + 1), -1, dtype=np.int64)
        addresses[: len(old)] = old
        addresses[addresses >= at] += size
        addresses[uid] = at
        derived = AddressLayout.__new__(AddressLayout)
        derived._set(addresses, self.base_address, self.end_address + size)
        return derived
