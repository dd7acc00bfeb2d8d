"""Memory-system timing machine.

Prices a dynamic fetch stream against a concrete cache with a
non-blocking prefetch port:

* a demand fetch that hits costs ``hit_cycles``;
* a demand fetch whose block is *in flight* (a prefetch was issued but
  has not completed) stalls only for the remaining latency — a partially
  effective prefetch;
* a demand miss costs the full miss latency and installs the block;
* a software prefetch instruction costs its own fetch plus an issue
  slot, then transfers its target block in the background, installing it
  ``Λ`` cycles later;
* an optional hardware prefetcher (:mod:`repro.sim.prefetchers`)
  observes the demand stream and issues its own background transfers;
* with an optional second-level cache, an L1 miss that hits L2 pays only
  the (smaller) L2 penalty, and a prefetch whose block is L2-resident
  completes after the L2 latency instead of the full DRAM latency —
  blocks fetched from DRAM are installed into both levels.

Only memory time is accounted (``τ_a``), matching the paper's scope: the
processor micro-architecture is not modelled, and the measured
instruction overhead of the optimization is reported separately (Fig. 8).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.analysis.timing import TimingModel
from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.errors import SimulationError
from repro.program.cfg import BasicBlock, ControlFlowGraph
from repro.program.layout import AddressLayout
from repro.sim.executor import block_trace
from repro.sim.trace import FetchEvent, SimulationResult


class MemorySystem:
    """Cycle-accounting front end over a :class:`ConcreteCache`."""

    def __init__(
        self,
        config: CacheConfig,
        timing: TimingModel,
        prefetcher: Optional["object"] = None,
        record_trace: bool = False,
        locked_blocks: Optional[frozenset] = None,
        l2_config: Optional[CacheConfig] = None,
    ):
        self.config = config
        self.timing = timing
        self.cache = ConcreteCache(config)
        self.l2: Optional[ConcreteCache] = None
        if l2_config is not None:
            if timing.l2_hit_penalty_cycles is None:
                raise SimulationError(
                    "l2_config given but the timing model has no second level"
                )
            if l2_config.block_size != config.block_size:
                raise SimulationError(
                    "L1 and L2 must share one block size"
                )
            self.l2 = ConcreteCache(l2_config)
        self.prefetcher = prefetcher
        self.record_trace = record_trace
        #: Blocks pinned in locked ways (hybrid scheme): always hit,
        #: never touch the LRU state of ``config``'s (residual) ways.
        self.locked_blocks = locked_blocks or frozenset()
        self.now = 0.0
        #: block -> (completion time, transfer latency, served by L2)
        #: of an in-flight transfer.
        self._in_flight: Dict[int, Tuple[float, float, bool]] = {}
        #: blocks installed by a prefetch and not yet demanded.
        self._prefetched_unused: set = set()
        self.result = SimulationResult(program="")

    # ------------------------------------------------------------------
    # core events
    # ------------------------------------------------------------------
    def fetch(self, address: int, is_prefetch_instr: bool = False) -> float:
        """Demand-fetch the instruction at ``address``; returns cycles."""
        self._complete_arrivals()
        block = self.config.block_of_address(address)
        cycles: float
        if block in self.locked_blocks:
            cycles = float(self.timing.hit_cycles)
            if is_prefetch_instr:
                cycles += float(self.timing.prefetch_issue_cycles)
            self.now += cycles
            self.result.fetches += 1
            self.result.hits += 1
            if self.record_trace:
                self.result.trace.append(
                    FetchEvent(address, block, True, cycles, is_prefetch_instr)
                )
            return cycles
        if self.cache.contains(block):
            self.cache.access(block)  # LRU touch, counts a hit
            cycles = float(self.timing.hit_cycles)
            hit = True
            if block in self._prefetched_unused:
                self._prefetched_unused.discard(block)
                self.result.useful_prefetches += 1
        elif block in self._in_flight:
            completion, latency, from_l2 = self._in_flight.pop(block)
            remaining = max(0.0, completion - self.now)
            if self.l2 is not None and not from_l2:
                self.l2.install(block)
                self.result.l2_fills += 1
            self._install(block)
            self.cache.access(block)
            cycles = float(self.timing.hit_cycles) + remaining
            hit = remaining == 0.0
            hidden = latency - remaining
            self.result.stall_cycles_hidden += max(0.0, hidden)
        else:
            if self.l2 is not None:
                self.result.l2_accesses += 1
                if self.l2.contains(block):
                    self.l2.access(block)  # LRU touch in L2
                    self.result.l2_hits += 1
                    cycles = float(self.timing.l2_hit_cycles)
                else:
                    self.l2.install(block)
                    self.result.l2_fills += 1
                    cycles = float(self.timing.miss_cycles)
            else:
                cycles = float(self.timing.miss_cycles)
            self._discard_victim_mark(block)
            self.cache.access(block)  # installs on miss
            self.result.fills += 1
            hit = False
        if is_prefetch_instr:
            cycles += float(self.timing.prefetch_issue_cycles)
        self.now += cycles
        self.result.fetches += 1
        if hit:
            self.result.hits += 1
        else:
            self.result.demand_misses += 1
        if self.record_trace:
            self.result.trace.append(
                FetchEvent(address, block, hit, cycles, is_prefetch_instr)
            )
        if self.prefetcher is not None:
            for target in self.prefetcher.observe(address, block, hit):
                self.issue_prefetch(target, software=False)
        return cycles

    def issue_prefetch(self, block: int, software: bool = True) -> bool:
        """Start a background transfer of ``block``.

        Dropped when the block is already cached or already in flight.

        Returns:
            ``True`` when a transfer was actually issued.
        """
        self._complete_arrivals()
        if block in self.locked_blocks:
            return False  # pinned content never needs a transfer
        if self.cache.contains(block) or block in self._in_flight:
            return False
        latency = float(self.timing.prefetch_latency)
        from_l2 = False
        if self.l2 is not None:
            self.result.l2_accesses += 1
            if self.l2.contains(block):
                self.l2.access(block)  # LRU touch in L2
                self.result.l2_hits += 1
                self.result.prefetch_l2_hits += 1
                latency = float(self.timing.l2_hit_penalty_cycles)
                from_l2 = True
        self._in_flight[block] = (self.now + latency, latency, from_l2)
        self.result.prefetch_transfers += 1
        return True

    def _fetch_repeats(self, block: int, addresses: Tuple[int, ...]) -> None:
        """Fetch ``addresses[1:]``, the rest of a run in ``block``.

        The run's first address was just fetched, so ``block`` is the MRU
        block of its set and every repeat is a hit.  They are charged in
        one step unless something can come between them — a transfer in
        flight to ``block``'s own set, a hardware prefetcher, trace
        recording or a locked block — and each repeat then takes its own
        :meth:`fetch`.  A transfer to another set may land during the
        run, but it cannot reorder this set's LRU stack or its marks,
        and the repeats never touch L2; so it is completed at the time
        the last repeat's :meth:`fetch` would complete it, and the state
        matches even when the run ends the program.  Cycle counts are
        whole numbers, so ``now`` gains exactly what the fetches one by
        one would add.
        """
        if (
            self.prefetcher is not None
            or self.record_trace
            or self.locked_blocks
            or (self._in_flight and self._in_flight_to_set(block))
        ):
            for address in addresses[1:]:
                self.fetch(address)
            return
        # A marked block was installed by a prefetch; the run's first
        # fetch claimed its mark, so the repeats claim none.
        count = len(addresses) - 1
        hit = self.timing.hit_cycles
        if self._in_flight:
            self.now += hit * (count - 1)
            self._complete_arrivals()
            self.now += hit
        else:
            self.now += hit * count
        self.result.fetches += count
        self.result.hits += count
        self.cache.hits += count

    def _in_flight_to_set(self, block: int) -> bool:
        """Whether a transfer in flight maps to ``block``'s cache set."""
        set_index = self.config.set_index
        own = set_index(block)
        return any(set_index(other) == own for other in self._in_flight)

    def advance(self, cycles: float) -> None:
        """Advance this machine's clock by externally-spent time.

        Used by split-cache simulation: while the *other* cache serves
        an access, this machine's in-flight transfers keep progressing.
        """
        if cycles < 0:
            raise SimulationError("cannot advance time backwards")
        self.now += cycles

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _complete_arrivals(self) -> None:
        if not self._in_flight:
            return
        arrived = [
            b for b, (t, _, _) in self._in_flight.items() if t <= self.now
        ]
        arrived.sort(key=lambda b: self._in_flight[b][0])
        for block in arrived:
            _, _, from_l2 = self._in_flight.pop(block)
            if self.l2 is not None and not from_l2:
                self.l2.install(block)
                self.result.l2_fills += 1
            self._install(block)
            self._prefetched_unused.add(block)

    def _install(self, block: int) -> None:
        evicted = self.cache.install(block)
        self.result.fills += 1
        if evicted is not None:
            self._prefetched_unused.discard(evicted)

    def _discard_victim_mark(self, block: int) -> None:
        """Drop the prefetched-unused mark of the block a demand fill of
        ``block`` evicts (the LRU block of a full set), as
        :meth:`_install` does: a block is marked only while cached."""
        if not self._prefetched_unused:
            return
        line = self.cache.set_contents(self.config.set_index(block))
        if len(line) >= self.config.associativity:
            self._prefetched_unused.discard(line[-1])


class FetchOp(NamedTuple):
    """One step of a basic block's fetch plan (:func:`fetch_plans`).

    Either one prefetch instruction (``is_prefetch``; one address, and
    ``target`` the memory block it prefetches, ``None`` for a data
    prefetch) or a run of consecutive non-prefetch instructions in one
    memory block (their addresses in fetch order; no ``target``).
    """

    block: int
    addresses: Tuple[int, ...]
    is_prefetch: bool
    target: Optional[int]


def _compile_block(
    basic_block: BasicBlock, layout: AddressLayout, config: CacheConfig
) -> Tuple[FetchOp, ...]:
    ops: List[FetchOp] = []
    run: List[int] = []
    run_block = -1
    for instr in basic_block.instructions:
        address = layout.address(instr.uid)
        block = config.block_of_address(address)
        if run and (instr.is_prefetch or block != run_block):
            ops.append(FetchOp(run_block, tuple(run), False, None))
            run = []
        if instr.is_prefetch:
            target = instr.prefetch_target
            if target is not None:
                target = config.block_of_address(layout.address(target))
            ops.append(FetchOp(block, (address,), True, target))
        else:
            run.append(address)
            run_block = block
    if run:
        ops.append(FetchOp(run_block, tuple(run), False, None))
    return tuple(ops)


def fetch_plans(
    cfg: ControlFlowGraph,
    config: CacheConfig,
    seed: int = 0,
    repeat: int = 1,
    base_address: int = 0,
) -> Iterator[Tuple[FetchOp, ...]]:
    """The fetch plan of every executed basic block, in execution order.

    Each basic block is compiled once per call, on its first execution,
    into :class:`FetchOp` steps: its prefetch instructions, and the runs
    of other instructions between them split where the memory block
    changes.
    """
    layout = AddressLayout(cfg, base_address)
    plans: Dict[str, Tuple[FetchOp, ...]] = {}
    for basic_block in block_trace(cfg, seed=seed, repeat=repeat):
        plan = plans.get(basic_block.name)
        if plan is None:
            plan = plans[basic_block.name] = _compile_block(
                basic_block, layout, config
            )
        yield plan


def simulate(
    cfg: ControlFlowGraph,
    config: CacheConfig,
    timing: TimingModel,
    seed: int = 0,
    prefetcher: Optional["object"] = None,
    repeat: int = 1,
    record_trace: bool = False,
    base_address: int = 0,
    locked_blocks: Optional[frozenset] = None,
    l2_config: Optional[CacheConfig] = None,
) -> SimulationResult:
    """Run a program once and return its memory-system summary.

    The fetch stream is priced run by run (:func:`fetch_plans`): the
    first fetch of a same-block run goes through
    :meth:`MemorySystem.fetch`, and the repeats, certain MRU hits, are
    charged in one step.  Each repeat takes its own
    :meth:`MemorySystem.fetch` instead whenever something could come
    between them: a transfer in flight after the run's first fetch, a
    hardware ``prefetcher`` (it observes every fetch), ``record_trace``
    (one event per fetch) or ``locked_blocks``.  Both paths give the
    same result, field for field.

    Args:
        cfg: Program to execute (prefetch instructions, if any, drive
            the software-prefetch path).
        config: Cache configuration.
        timing: Timing model (typically from
            :meth:`repro.energy.CacheEnergyModel.timing_model`).
        seed: Executor seed (branch/switch draws).
        prefetcher: Optional hardware prefetcher.
        repeat: Number of back-to-back runs (cache stays warm).
        record_trace: Keep per-fetch events (memory heavy).
        base_address: Code base address.
        locked_blocks: Memory blocks pinned in locked ways (hybrid
            locking): they always hit and never touch the LRU state of
            ``config``, which then describes the unlocked ways.
        l2_config: Optional second-level cache; requires a timing model
            with ``l2_hit_penalty_cycles`` set.

    Returns:
        A validated :class:`SimulationResult`.
    """
    machine = MemorySystem(
        config,
        timing,
        prefetcher,
        record_trace,
        locked_blocks=locked_blocks,
        l2_config=l2_config,
    )
    machine.result.program = cfg.name
    fetch = machine.fetch
    for plan in fetch_plans(cfg, config, seed, repeat, base_address):
        for block, addresses, is_prefetch, target in plan:
            if is_prefetch:
                fetch(addresses[0], is_prefetch_instr=True)
                machine.result.prefetch_instructions += 1
                # a data prefetch (no target) transfers on the
                # data-cache port (repro.data.machine); nothing to do here
                if target is not None:
                    machine.issue_prefetch(target)
                continue
            fetch(addresses[0])
            if len(addresses) > 1:
                machine._fetch_repeats(block, addresses)
    result = machine.result
    result.memory_cycles = machine.now
    if prefetcher is not None:
        result.hw_table_probes = getattr(prefetcher, "probes", 0)
    result.validate()
    return result
