"""Relocation effects of inserting a prefetch (Eq. 8 context).

A prefetch is a real instruction: inserting one shifts every later
instruction by :data:`~repro.program.instructions.INSTRUCTION_SIZE`
bytes, which can move instructions across memory-block boundaries,
change their cache sets, and thereby change the hit/miss classification
of references that have nothing to do with the precluded miss.  The
paper folds this into ``rcost`` (Eq. 8): the WCET delta over all other
references, which must not be positive for the insertion to stand
(Lemma 2).

This module provides

* :func:`insertion_point_after` — mapping the ACFG program point
  ``(r_i, r_{i+1})`` to a static ``(block, index)`` position (Algorithm 1
  lines 5-7 splice the ACFG edge; in the binary this is one insertion
  location shared by all contexts of the block),
* :func:`relocation_cost` — the exact ``rcost``, measured by comparing
  the full re-analysis of the transformed program against the original,
  excluding the inserted prefetch and the precluded miss themselves,
* :func:`moved_blocks` — which instructions changed memory block, for
  diagnostics and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import FrozenSet, Optional

import numpy as np

from repro.analysis.wcet import WCETResult
from repro.errors import OptimizationError
from repro.program.acfg import ACFG
from repro.program.layout import AddressLayout


@dataclass(frozen=True)
class InsertionPoint:
    """A static location for a new prefetch instruction.

    The prefetch is inserted *before* position ``index`` of ``block``.
    """

    block_name: str
    index: int


def insertion_point_after(acfg: ACFG, rid: int) -> Optional[InsertionPoint]:
    """Static position realising the program point ``(r_i, succ(r_i))``.

    When ``r_i`` is a mid-block instruction the prefetch goes right
    after it.  When ``r_i`` terminates its block with a control transfer
    (branch/jump/call/return), nothing can be placed behind it in the
    same block; the prefetch goes at the top of the next reference's
    block instead — found by following successors (skipping JOIN
    vertices, preferring the smallest rid for determinism).

    Returns:
        The :class:`InsertionPoint`, or ``None`` when ``r_i`` has no
        downstream reference (it borders the sink).
    """
    instr = acfg.instr[rid]
    if instr is None:
        raise OptimizationError(f"vertex {rid} is not a reference")
    block_name = acfg.block_name[rid]
    index = acfg.index_in_block[rid]
    is_last = index == len(acfg.cfg.block(block_name).instructions) - 1
    if not (is_last and instr.is_control):
        return InsertionPoint(block_name, index + 1)
    # Follow the graph to the next reference vertex.
    cursor = rid
    for _ in range(len(acfg)):
        succs = acfg.successors(cursor)
        if not succs:
            return None
        cursor = min(succs)
        if cursor == acfg.sink:
            return None
        if acfg.instr[cursor] is not None:
            return InsertionPoint(
                acfg.block_name[cursor], acfg.index_in_block[cursor]
            )
        # JOIN: keep walking.
    raise OptimizationError("insertion-point walk did not terminate")


def relocation_cost(
    before: WCETResult,
    after: WCETResult,
    prefetch_uid: int,
    miss_uid: int,
) -> float:
    """Exact ``rcost`` (Eq. 8): WCET delta over all *other* references.

    Sums ``τ_w(r)`` over every reference except the inserted prefetch
    (all its contexts) and the precluded reference (all contexts), in
    both programs, and returns ``after - before``.  A non-positive value
    means the relocation alone did not lengthen the worst case.
    """
    return _tau_excluding(after, prefetch_uid, miss_uid) - _tau_excluding(
        before, prefetch_uid, miss_uid
    )


def _tau_excluding(result: WCETResult, prefetch_uid: int, miss_uid: int) -> float:
    acfg = result.acfg
    uids = acfg.uid_arr
    kept = acfg.ref_mask & (uids != prefetch_uid) & (uids != miss_uid)
    # ``τ_w = t_w · n^w`` per kept reference (n^w is exact in float64),
    # summed left to right in rid order: np.sum would add pairwise.
    taus = np.asarray(result.t_w, dtype=np.float64)[kept] * np.asarray(
        result.solution.n_w, dtype=np.float64
    )[kept]
    return reduce(add, taus.tolist(), 0.0)


def moved_blocks(
    old: AddressLayout, new: AddressLayout, block_size: int
) -> FrozenSet[int]:
    """Instruction uids whose memory block changed between two layouts.

    Only instructions present in both layouts are compared (an inserted
    prefetch exists only in the new one, a removed one only in the old).
    """
    n = min(len(old.addresses), len(new.addresses))
    shared = np.flatnonzero(
        (old.addresses[:n] >= 0) & (new.addresses[:n] >= 0)
    )
    moved = old.blocks_of(shared, block_size) != new.blocks_of(
        shared, block_size
    )
    return frozenset(shared[moved].tolist())
