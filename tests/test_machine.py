"""Tests for the memory-system timing machine and `simulate`."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.timing import TimingModel
from repro.cache.config import CacheConfig
from repro.program.builder import ProgramBuilder
from repro.program.layout import AddressLayout
from repro.sim import machine as machine_module
from repro.sim.executor import block_trace
from repro.sim.machine import MemorySystem, fetch_plans, simulate
from repro.sim.prefetchers import NextLinePrefetcher
from tests.test_sim_runs import simulate_per_fetch


@pytest.fixture
def system(timing):
    return MemorySystem(CacheConfig(2, 16, 64), timing)


class TestFetchAccounting:
    def test_miss_then_hit_cycles(self, system, timing):
        assert system.fetch(0) == timing.miss_cycles
        assert system.fetch(4) == timing.hit_cycles  # same block
        assert system.result.fetches == 2
        assert system.result.demand_misses == 1
        assert system.result.hits == 1

    def test_time_accumulates(self, system, timing):
        system.fetch(0)
        system.fetch(4)
        assert system.now == timing.miss_cycles + timing.hit_cycles

    def test_prefetch_instruction_pays_issue_slot(self, system, timing):
        cycles = system.fetch(0, is_prefetch_instr=True)
        assert cycles == timing.miss_cycles + timing.prefetch_issue_cycles


class TestPrefetchPort:
    def test_completed_prefetch_turns_miss_into_hit(self, system, timing):
        system.issue_prefetch(5)
        assert system.result.prefetch_transfers == 1
        # burn enough time for the transfer to finish
        for i in range(timing.prefetch_latency + 1):
            system.fetch(0)
        cycles = system.fetch(5 * 16)
        assert cycles == timing.hit_cycles
        assert system.result.useful_prefetches == 1

    def test_in_flight_block_partially_stalls(self, system, timing):
        system.issue_prefetch(5)
        system.fetch(0)  # one miss: 31 cycles pass of 30 needed... latency=30
        # demand the block immediately: remaining = max(0, 30 - 31) = 0 here,
        # so use a fresh system for a real partial stall
        system2 = MemorySystem(CacheConfig(2, 16, 64), timing)
        system2.issue_prefetch(5)
        system2.fetch(0 * 16)  # miss: now = 31 >= completion 30
        system3 = MemorySystem(CacheConfig(2, 16, 64), timing)
        system3.issue_prefetch(5)
        system3.fetch(64)  # hit? no: cold miss. now=31 > 30
        # construct exact partial: issue, then fetch a hit (1 cycle), then demand
        system4 = MemorySystem(CacheConfig(2, 16, 64), timing)
        system4.fetch(0)  # warm block 0 (31 cycles)
        system4.issue_prefetch(5)
        system4.fetch(0)  # hit, 1 cycle; now completion - now = 29
        cycles = system4.fetch(5 * 16)
        assert cycles == timing.hit_cycles + (timing.prefetch_latency - 1)
        assert system4.result.stall_cycles_hidden == pytest.approx(1.0)

    def test_redundant_prefetch_dropped(self, system):
        system.fetch(0)
        assert system.issue_prefetch(0) is False
        system.issue_prefetch(9)
        assert system.issue_prefetch(9) is False
        assert system.result.prefetch_transfers == 1

    def test_prefetched_block_can_be_evicted_before_use(self, system, timing):
        config = system.config  # 2 sets, 2-way
        system.issue_prefetch(2)  # set 0
        for _ in range(3):
            system.fetch(0)  # let it land
        # evict it with two other set-0 blocks
        system.fetch(4 * 16)
        system.fetch(8 * 16)
        cycles = system.fetch(2 * 16)
        assert cycles == timing.miss_cycles
        assert system.result.useful_prefetches == 0


class TestSimulate:
    def test_counts_are_consistent(self, loop_program, tiny_cache, timing):
        result = simulate(loop_program, tiny_cache, timing, seed=2)
        result.validate()
        assert result.fetches == result.hits + result.demand_misses
        assert result.memory_cycles >= result.fetches  # >= 1 cycle each

    def test_prefetch_instructions_counted(self, loop_program, tiny_cache, timing):
        target = loop_program.blocks[3].instructions[0]
        loop_program.insert_prefetch(loop_program.blocks[1].name, 0, target.uid)
        result = simulate(loop_program, tiny_cache, timing, seed=2)
        assert result.prefetch_instructions > 0

    def test_trace_recording(self, straight_program, tiny_cache, timing):
        result = simulate(
            straight_program, tiny_cache, timing, seed=0, record_trace=True
        )
        assert len(result.trace) == result.fetches
        assert result.trace[0].hit is False  # cold start

    def test_trace_off_by_default(self, straight_program, tiny_cache, timing):
        result = simulate(straight_program, tiny_cache, timing, seed=0)
        assert result.trace == []

    def test_repeat_warms_the_cache(self, loop_program, big_cache, timing):
        once = simulate(loop_program, big_cache, timing, seed=1)
        twice = simulate(loop_program, big_cache, timing, seed=1, repeat=2)
        # second run is all hits in a big cache: misses don't double
        assert twice.demand_misses == once.demand_misses

    def test_bigger_cache_never_more_misses(self, thrash_program, timing):
        small = simulate(
            thrash_program, CacheConfig(2, 16, 256), timing, seed=1
        )
        big = simulate(thrash_program, CacheConfig(2, 16, 4096), timing, seed=1)
        assert big.demand_misses <= small.demand_misses

    def test_base_address_shifts_blocks_not_counts(
        self, straight_program, tiny_cache, timing
    ):
        a = simulate(straight_program, tiny_cache, timing, seed=0)
        b = simulate(
            straight_program, tiny_cache, timing, seed=0, base_address=1 << 16
        )
        assert a.fetches == b.fetches
        assert a.demand_misses == b.demand_misses  # alignment preserved


def _two_set_system(l2: bool):
    """Direct-mapped, 2 sets of 64 B, Λ = 4, and optionally an L2."""
    timing = TimingModel(
        hit_cycles=1, miss_penalty_cycles=4,
        l2_hit_penalty_cycles=2 if l2 else None,
    )
    return (CacheConfig(1, 64, 128), timing,
            CacheConfig(2, 64, 512) if l2 else None)


class TestRunBatchingGuards:
    """Each guard of `simulate`'s one-step run charge is load-bearing:
    without it the batched result departs from the per-fetch loop."""

    def test_prefetch_landing_mid_run_evicts_the_running_block(self):
        # Direct-mapped, 2 sets of 64 B (16 instructions): memory blocks
        # 0 and 2 share set 0.  bb0 starts with a prefetch of block 2 and
        # then runs through block 0; the transfer (Λ = 4) lands after
        # four of the run's hits and evicts block 0 under the run.  Block
        # 0 is fetched by: the entry (miss, hit), the prefetch
        # instruction, four run hits, then the re-miss.  That re-miss
        # evicts block 2 unused, taking its prefetched-unused mark with
        # it, so bb0's later run through block 2 misses and the prefetch
        # counts as wasted, not useful.
        config = CacheConfig(1, 64, 128)
        timing = TimingModel(hit_cycles=1, miss_penalty_cycles=4)
        b = ProgramBuilder("landing")
        b.code(48)
        cfg = b.build()
        bb0 = cfg.block("bb0")
        cfg.insert_prefetch("bb0", 0, bb0.instructions[40].uid)
        traced = simulate_per_fetch(cfg, config, timing, record_trace=True)
        block0 = [event.hit for event in traced.result.trace if event.block == 0]
        assert block0[:8] == [False] + [True] * 6 + [False]
        assert block0.count(False) == 2
        result = simulate(cfg, config, timing)
        oracle = simulate_per_fetch(cfg, config, timing).result
        assert dataclasses.asdict(result) == dataclasses.asdict(oracle)
        assert result.demand_misses == traced.result.demand_misses
        assert result.useful_prefetches == 0

    @pytest.mark.parametrize("l2", (False, True))
    def test_other_set_transfer_leaves_the_run_in_one_step(
        self, monkeypatch, l2
    ):
        # As above, but the prefetch targets memory block 1 (set 1)
        # while bb0 runs through block 0 (set 0): the transfer in flight
        # cannot touch the run's set, so each run is one fetch call.
        config, timing, l2_config = _two_set_system(l2)
        b = ProgramBuilder("other_set")
        b.code(48)
        cfg = b.build()
        bb0 = cfg.block("bb0")
        cfg.insert_prefetch("bb0", 0, bb0.instructions[20].uid)
        layout = AddressLayout(cfg)
        assert config.block_of_address(
            layout.address(bb0.instructions[21].uid)
        ) == 1
        calls = []
        in_flight_runs = []
        fetch = MemorySystem.fetch
        repeats = MemorySystem._fetch_repeats

        def counting_fetch(machine, *args, **kwargs):
            calls.append(args[0])
            return fetch(machine, *args, **kwargs)

        def watching_repeats(machine, block, addresses):
            if machine._in_flight:
                in_flight_runs.append((block, set(machine._in_flight)))
            return repeats(machine, block, addresses)

        monkeypatch.setattr(MemorySystem, "fetch", counting_fetch)
        monkeypatch.setattr(MemorySystem, "_fetch_repeats", watching_repeats)
        result = simulate(cfg, config, timing, l2_config=l2_config)
        assert in_flight_runs == [(0, {1})]
        steps = sum(len(plan) for plan in fetch_plans(cfg, config))
        assert len(calls) == steps < result.fetches
        monkeypatch.undo()
        oracle = simulate_per_fetch(
            cfg, config, timing, l2_config=l2_config
        ).result
        assert dataclasses.asdict(result) == dataclasses.asdict(oracle)
        assert result.useful_prefetches == 1

    @pytest.mark.parametrize("l2", (False, True))
    def test_other_set_transfer_landing_in_the_last_run(self, l2):
        # The program's last run (13 instructions of __exit, memory
        # block 3, set 1) follows a prefetch of block 0 (set 0, evicted
        # by block 2): the transfer lands during the run and no fetch
        # follows it, so the one-step charge must install it itself.
        config, timing, l2_config = _two_set_system(l2)
        b = ProgramBuilder("tail")
        b.code(46)
        cfg = b.build()
        tail = cfg.block("__exit")
        for _ in range(12):
            tail.instructions.insert(0, cfg.factory.make())
        cfg.insert_prefetch("__exit", 0, cfg.block("bb0").instructions[0].uid)
        assert AddressLayout(cfg).address(tail.instructions[0].uid) == 192
        result = simulate(cfg, config, timing, l2_config=l2_config)
        oracle = simulate_per_fetch(
            cfg, config, timing, l2_config=l2_config
        ).result
        assert dataclasses.asdict(result) == dataclasses.asdict(oracle)
        assert result.prefetch_transfers == 1

    @pytest.mark.parametrize("policy", ("always", "tagged"))
    def test_hardware_prefetcher_observes_every_fetch(
        self, loop_program, tiny_cache, timing, policy
    ):
        result = simulate(
            loop_program, tiny_cache, timing, seed=2,
            prefetcher=NextLinePrefetcher(policy),
        )
        oracle = simulate_per_fetch(
            loop_program, tiny_cache, timing, seed=2,
            prefetcher=NextLinePrefetcher(policy),
        ).result
        assert result.hw_table_probes == oracle.hw_table_probes
        assert result.hw_table_probes == result.fetches
        assert result.prefetch_transfers == oracle.prefetch_transfers
        assert dataclasses.asdict(result) == dataclasses.asdict(oracle)

    def test_trace_has_one_event_per_instruction(
        self, loop_program, tiny_cache, timing
    ):
        result = simulate(
            loop_program, tiny_cache, timing, seed=2, record_trace=True
        )
        layout = AddressLayout(loop_program)
        addresses = [
            layout.address(instr.uid)
            for block in block_trace(loop_program, seed=2)
            for instr in block.instructions
        ]
        assert [event.address for event in result.trace] == addresses
        oracle = simulate_per_fetch(
            loop_program, tiny_cache, timing, seed=2, record_trace=True
        ).result
        assert result.trace == oracle.trace

    def test_locked_runs_leave_the_unlocked_ways_alone(
        self, loop_program, timing, monkeypatch
    ):
        config = CacheConfig(1, 16, 128)  # the unlocked ways
        locked = frozenset({0, 1, 2, 3})
        machines = []

        class Recording(MemorySystem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machines.append(self)

        monkeypatch.setattr(machine_module, "MemorySystem", Recording)
        result = simulate(
            loop_program, config, timing, seed=2, locked_blocks=locked
        )
        oracle = simulate_per_fetch(
            loop_program, config, timing, seed=2, locked_blocks=locked
        )
        (machine,) = machines
        assert dataclasses.asdict(result) == dataclasses.asdict(oracle.result)
        assert machine.cache.hits == oracle.cache.hits
        assert machine.cache.misses == oracle.cache.misses
