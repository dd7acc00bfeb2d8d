"""The run-batched simulator against the per-fetch machine it replaced.

:func:`repro.sim.machine.simulate` prices each basic block from a
compiled plan of fetch runs and charges a run's repeats in one step when
nothing can come between them.  The oracle here is the per-instruction
loop it replaced: one :meth:`MemorySystem.fetch` per executed
instruction.  Every :class:`SimulationResult` field must match it
exactly — counters, cycles and the L2 bookkeeping alike.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import pytest

from repro.bench import registry
from repro.cache.config import TABLE2, CacheConfig, hierarchy_for
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import hierarchy_model
from repro.energy.technology import technology
from repro.program.layout import AddressLayout
from repro.sim.executor import block_trace
from repro.sim.machine import MemorySystem, simulate

TECH = "45nm"
L2_SPEC = "4:16:4096:10"
PROGRAMS = tuple(registry.program_names())


def simulate_per_fetch(
    cfg,
    config: CacheConfig,
    timing,
    seed: int = 0,
    prefetcher=None,
    repeat: int = 1,
    record_trace: bool = False,
    base_address: int = 0,
    locked_blocks: Optional[frozenset] = None,
    l2_config: Optional[CacheConfig] = None,
) -> MemorySystem:
    """The per-instruction simulation loop; returns the finished machine."""
    layout = AddressLayout(cfg, base_address)
    machine = MemorySystem(
        config,
        timing,
        prefetcher,
        record_trace,
        locked_blocks=locked_blocks,
        l2_config=l2_config,
    )
    machine.result.program = cfg.name
    memory_map_cache: Dict[int, int] = {}
    for block in block_trace(cfg, seed=seed, repeat=repeat):
        for instr in block.instructions:
            address = layout.address(instr.uid)
            if instr.is_prefetch:
                machine.fetch(address, is_prefetch_instr=True)
                machine.result.prefetch_instructions += 1
                target_uid = instr.prefetch_target
                if target_uid is None:
                    continue
                target_block = memory_map_cache.get(target_uid)
                if target_block is None:
                    target_block = config.block_of_address(
                        layout.address(target_uid)
                    )
                    memory_map_cache[target_uid] = target_block
                machine.issue_prefetch(target_block)
            else:
                machine.fetch(address)
    result = machine.result
    result.memory_cycles = machine.now
    if prefetcher is not None:
        result.hw_table_probes = getattr(prefetcher, "probes", 0)
    result.validate()
    return machine


def assert_matches_oracle(cfg, config, timing, **kwargs) -> None:
    """``simulate`` equals the per-fetch loop on every result field."""
    got = simulate(cfg, config, timing, **kwargs)
    want = simulate_per_fetch(cfg, config, timing, **kwargs).result
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def _l2_spec(config: CacheConfig) -> str:
    """An L2 at least as large as any Table 2 L1, sharing its block size."""
    return f"4:{config.block_size}:16384:10"


def _timing(config: CacheConfig, l2: Optional[str]):
    return hierarchy_model(hierarchy_for(config, l2), technology(TECH)).timing


def _l2_config(config: CacheConfig, l2: Optional[str]):
    level = hierarchy_for(config, l2).l2_level
    return level.config if level is not None else None


def _optimized(program: str, config: CacheConfig, budget: int):
    options = OptimizerOptions(
        max_evaluations=budget, with_persistence=False, kernel="vectorized"
    )
    optimized, _ = optimize(
        registry.load(program), config, _timing(config, None), options=options
    )
    return optimized


HIERARCHIES = (("k1", None), ("k13", None), ("k1", L2_SPEC))


@pytest.mark.parametrize("config_id,l2", HIERARCHIES)
@pytest.mark.parametrize("program", PROGRAMS)
def test_original_programs_match_the_per_fetch_loop(program, config_id, l2):
    config = TABLE2[config_id]
    assert_matches_oracle(
        registry.load(program), config, _timing(config, l2), seed=1,
        l2_config=_l2_config(config, l2),
    )


@pytest.fixture(scope="module")
def optimized_k1():
    """fdct/ndes/adpcm optimized at k1: executables with prefetches."""
    return {
        program: _optimized(program, TABLE2["k1"], 60)
        for program in ("fdct", "ndes", "adpcm")
    }


@pytest.mark.parametrize("l2", (None, L2_SPEC))
@pytest.mark.parametrize("program", ("fdct", "ndes", "adpcm"))
def test_optimized_programs_match_the_per_fetch_loop(optimized_k1, program, l2):
    cfg = optimized_k1[program]
    assert any(
        instr.is_prefetch for block in cfg.blocks
        for instr in block.instructions
    )
    config = TABLE2["k1"]
    assert_matches_oracle(
        cfg, config, _timing(config, l2), seed=1,
        l2_config=_l2_config(config, l2),
    )


@pytest.mark.slow
@pytest.mark.parametrize("config_id", sorted(TABLE2, key=lambda k: int(k[1:])))
def test_every_table2_config_matches_the_per_fetch_loop(config_id):
    """37 programs × seeds 1–3 × {no L2, L2} × {original, optimized},
    plus two back-to-back runs on seed 1."""
    config = TABLE2[config_id]
    for program in PROGRAMS:
        executables = (registry.load(program), _optimized(program, config, 20))
        for l2 in (None, _l2_spec(config)):
            timing = _timing(config, l2)
            l2_config = _l2_config(config, l2)
            for cfg in executables:
                for seed in (1, 2, 3):
                    assert_matches_oracle(
                        cfg, config, timing, seed=seed, l2_config=l2_config
                    )
                assert_matches_oracle(
                    cfg, config, timing, seed=1, repeat=2, l2_config=l2_config
                )
