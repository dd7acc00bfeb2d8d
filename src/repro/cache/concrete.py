"""Concrete set-associative LRU instruction cache.

This is the executable counterpart of the abstract semantics: the trace
simulator (:mod:`repro.sim`) drives it with fetch addresses, and the
property-based tests use it as the ground truth the abstract analysis
must be sound against (an always-hit reference may never miss here).

The cache state is the paper's concrete state ``c: L -> S`` (Section
3.1) with full LRU ordering per set, blocks denoted ``[MRU, ..., LRU]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.errors import SimulationError


class ConcreteCache:
    """A set-associative LRU cache over memory-block ids.

    Only block ids flow through the interface — address-to-block mapping
    is the caller's business (:meth:`CacheConfig.block_of_address`).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Set count, fixed by the (frozen) config: the set of a block is
        # ``block % self._num_sets`` (CacheConfig.set_index).
        self._num_sets = config.num_sets
        # Per set: list of block ids, MRU first.  Sets are materialised
        # lazily; an absent set is entirely invalid.
        self._sets: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0
        # Line fills are split by cause: a demand miss installs the
        # block (demand_fills), a prefetch installs it without a demand
        # access (prefetch_fills).  `fills` is their sum — historically
        # it silently counted prefetch installs only while reading as
        # total line fills.  Note the trace simulator
        # (repro.sim.machine) and the energy model keep their own
        # per-event counters and never read these.
        self.demand_fills = 0
        self.prefetch_fills = 0

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def access(self, block: int) -> bool:
        """Demand access to a memory block.

        Updates LRU state and the hit/miss counters.

        Returns:
            ``True`` on hit, ``False`` on miss (the block is then
            installed at the MRU position, evicting the LRU block if the
            set is full).
        """
        hit = self._touch(block)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def install(self, block: int) -> Optional[int]:
        """Install a block without counting a demand access (prefetch fill).

        Returns:
            The evicted block id, or ``None`` when nothing was evicted
            (set not full, or block already present — in which case it is
            merely promoted to MRU).
        """
        index = block % self._num_sets
        line = self._sets.setdefault(index, [])
        if block in line:
            line.remove(block)
            line.insert(0, block)
            return None
        evicted = None
        if len(line) >= self.config.associativity:
            evicted = line.pop()
        line.insert(0, block)
        self.prefetch_fills += 1
        return evicted

    def contains(self, block: int) -> bool:
        """Non-destructive lookup (no LRU update, no counters)."""
        index = block % self._num_sets
        return block in self._sets.get(index, ())

    def _touch(self, block: int) -> bool:
        index = block % self._num_sets
        line = self._sets.setdefault(index, [])
        if block in line:
            line.remove(block)
            line.insert(0, block)
            return True
        if len(line) >= self.config.associativity:
            line.pop()
        line.insert(0, block)
        self.demand_fills += 1
        return False

    # ------------------------------------------------------------------
    # inspection / bookkeeping
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        """Total demand accesses so far."""
        return self.hits + self.misses

    @property
    def fills(self) -> int:
        """Total line fills: demand-miss installs plus prefetch installs."""
        return self.demand_fills + self.prefetch_fills

    @property
    def miss_rate(self) -> float:
        """Miss rate over demand accesses (0.0 when none occurred)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def set_contents(self, index: int) -> Tuple[int, ...]:
        """Blocks of a set, MRU first."""
        if not 0 <= index < self.config.num_sets:
            raise SimulationError(
                f"set index {index} out of range (num_sets="
                f"{self.config.num_sets})"
            )
        return tuple(self._sets.get(index, ()))

    def cached_blocks(self) -> Tuple[int, ...]:
        """All blocks currently cached, sorted (the paper's ``B(c)``)."""
        blocks: List[int] = []
        for line in self._sets.values():
            blocks.extend(line)
        return tuple(sorted(blocks))

    def age_of(self, block: int) -> Optional[int]:
        """LRU age of a block in its set (0 = MRU), or ``None`` if absent."""
        index = block % self._num_sets
        line = self._sets.get(index, [])
        if block in line:
            return line.index(block)
        return None

    def reset_counters(self) -> None:
        """Zero the hit/miss/fill counters, keeping the cache contents."""
        self.hits = 0
        self.misses = 0
        self.demand_fills = 0
        self.prefetch_fills = 0

    def flush(self) -> None:
        """Invalidate the whole cache and reset counters."""
        self._sets.clear()
        self.reset_counters()

    def clone(self) -> "ConcreteCache":
        """Deep copy (state and counters)."""
        other = ConcreteCache(self.config)
        other._sets = {k: list(v) for k, v in self._sets.items()}
        other.hits = self.hits
        other.misses = self.misses
        other.demand_fills = self.demand_fills
        other.prefetch_fills = self.prefetch_fills
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConcreteCache {self.config.label()} hits={self.hits} "
            f"misses={self.misses}>"
        )
