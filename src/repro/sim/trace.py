"""Trace containers and simulation results.

The paper estimates ACET and energy "through a traditional trace-based
approach" with traces from an instruction-set simulator (GEM5).  Our
executor produces the same artefact — the dynamic fetch-address stream —
directly from the program model, and :class:`SimulationResult` is the
per-run summary every experiment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.energy.metrics import MemoryEventCounts
from repro.errors import SimulationError


@dataclass
class FetchEvent:
    """One recorded instruction fetch (only kept when tracing is on).

    Attributes:
        address: Byte address fetched.
        block: Memory block id.
        hit: Whether the cache served it without a DRAM transfer.
        cycles: Memory cycles this fetch cost.
        is_prefetch: Whether the fetched instruction was a prefetch.
    """

    address: int
    block: int
    hit: bool
    cycles: float
    is_prefetch: bool = False


@dataclass
class SimulationResult:
    """Summary of one concrete run of a program.

    Attributes:
        program: Program name.
        fetches: Total instruction fetches (= executed instructions).
        hits: Fetches served by the cache.
        demand_misses: Fetches that waited on DRAM (fully or partially).
        prefetch_instructions: Executed software prefetch instructions.
        prefetch_transfers: Block transfers issued by prefetches.
        useful_prefetches: Prefetched blocks that were demanded before
            eviction.
        fills: Blocks installed into the cache.
        memory_cycles: Total memory-system time of the run (the paper's
            ``τ_a``, the memory contribution to the ACET).
        stall_cycles_hidden: Miss cycles avoided thanks to prefetching
            (informational).
        hw_table_probes: Lookups performed by a hardware prefetcher's
            tables (0 for pure software prefetching).
        l2_accesses: Second-level probes (L1 misses and prefetch
            transfers); 0 in a single-level memory system.
        l2_hits: Second-level probes served without a DRAM transfer.
        l2_fills: Blocks installed into the second level.
        prefetch_l2_hits: Prefetch transfers served by the second level
            (subset of both ``prefetch_transfers`` and ``l2_hits``).
        trace: Recorded fetch events (empty unless tracing enabled).
    """

    program: str
    fetches: int = 0
    hits: int = 0
    demand_misses: int = 0
    prefetch_instructions: int = 0
    prefetch_transfers: int = 0
    useful_prefetches: int = 0
    fills: int = 0
    memory_cycles: float = 0.0
    stall_cycles_hidden: float = 0.0
    hw_table_probes: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    l2_fills: int = 0
    prefetch_l2_hits: int = 0
    trace: List[FetchEvent] = field(default_factory=list)

    @property
    def miss_rate(self) -> float:
        """Demand miss rate over all fetches."""
        if self.fetches == 0:
            return 0.0
        return self.demand_misses / self.fetches

    def event_counts(self) -> MemoryEventCounts:
        """Convert to the energy-accounting input."""
        return MemoryEventCounts(
            fetches=self.fetches,
            demand_misses=self.demand_misses,
            prefetch_transfers=self.prefetch_transfers,
            fills=self.fills,
            memory_cycles=self.memory_cycles,
            l2_accesses=self.l2_accesses,
            l2_hits=self.l2_hits,
            l2_fills=self.l2_fills,
        )

    def validate(self) -> None:
        """Internal consistency checks (used by tests and harnesses)."""
        if self.hits + self.demand_misses != self.fetches:
            raise SimulationError(
                f"hits ({self.hits}) + misses ({self.demand_misses}) != "
                f"fetches ({self.fetches})"
            )
        if self.useful_prefetches > self.prefetch_transfers:
            raise SimulationError("useful_prefetches exceeds prefetch_transfers")
        if self.prefetch_transfers > self.prefetch_instructions and (
            self.hw_table_probes == 0
        ):
            raise SimulationError(
                "software prefetch transfers exceed executed prefetches"
            )
        if self.l2_hits > self.l2_accesses:
            raise SimulationError("l2_hits exceeds l2_accesses")
        if self.prefetch_l2_hits > self.prefetch_transfers:
            raise SimulationError("prefetch_l2_hits exceeds prefetch_transfers")
        if self.prefetch_l2_hits > self.l2_hits:
            raise SimulationError("prefetch_l2_hits exceeds l2_hits")
