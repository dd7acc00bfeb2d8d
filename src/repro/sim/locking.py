"""Static instruction-cache locking baseline.

The paper positions its technique against the locking school (refs [4,
14, 16, 2]): lock the most valuable blocks into the cache, trade
performance for perfect predictability.  Section 6 names implementing a
locking baseline as planned work — this module provides it so the
energy/WCET comparison can be run (``examples/prefetcher_shootout.py``
and the ablation benches).

Model: *full static locking*.  A selection of memory blocks (at most
``associativity`` per set) is preloaded and locked; every other fetch
goes straight to DRAM without allocating.  WCET analysis under locking
is trivial — a reference hits iff its block is locked — which is the
predictability argument for locking, and the energy cost is the longer
execution, which is the paper's argument against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.structural import PathSolution, solve_wcet_path
from repro.analysis.timing import TimingModel
from repro.cache.config import CacheConfig
from repro.errors import SimulationError
from repro.program.acfg import ACFG, build_acfg
from repro.program.cfg import ControlFlowGraph
from repro.sim.machine import fetch_plans
from repro.sim.trace import SimulationResult


def select_locked_blocks(
    acfg: ACFG,
    config: CacheConfig,
    weights: Optional[Dict[int, float]] = None,
) -> Set[int]:
    """Choose the blocks to lock: per set, the heaviest ``assoc`` blocks.

    Args:
        acfg: Program ACFG (provides the block inventory and, by
            default, the weights).
        config: Cache configuration (capacity constraint).
        weights: Optional block -> value map.  Defaults to the number of
            worst-case executions of the references in each block
            (``Σ multiplier`` over the block's vertices) — the standard
            frequency-driven selection of the locking literature.

    Returns:
        The set of locked memory-block ids.
    """
    if weights is None:
        weights = {}
        ref_block, multiplier = acfg._ref_block, acfg.multiplier
        for rid in acfg.ref_rids:
            block = ref_block[rid]
            weights[block] = weights.get(block, 0.0) + multiplier[rid]
    per_set: Dict[int, List[Tuple[float, int]]] = {}
    for block, weight in weights.items():
        per_set.setdefault(config.set_index(block), []).append((weight, block))
    locked: Set[int] = set()
    for candidates in per_set.values():
        candidates.sort(key=lambda pair: (-pair[0], pair[1]))
        for _, block in candidates[: config.associativity]:
            locked.add(block)
    return locked


def locked_wcet(
    acfg: ACFG, timing: TimingModel, locked_blocks: Set[int]
) -> PathSolution:
    """WCET path under full locking: hit iff the block is locked."""
    hit, miss = float(timing.hit_cycles), float(timing.miss_cycles)
    ref_block = acfg._ref_block
    times: List[float] = [0.0] * len(acfg)
    for rid in acfg.ref_rids:
        times[rid] = hit if ref_block[rid] in locked_blocks else miss
    return solve_wcet_path(acfg, times)


def residual_config(config: CacheConfig, locked_ways: int) -> CacheConfig:
    """The configuration the *unlocked* ways present.

    Locking ``locked_ways`` ways per set leaves an
    ``(associativity - locked_ways)``-way cache with the same sets.
    """
    if not 0 < locked_ways < config.associativity:
        raise SimulationError(
            f"locked_ways must be in 1..{config.associativity - 1}, "
            f"got {locked_ways}"
        )
    remaining = config.associativity - locked_ways
    return CacheConfig(
        associativity=remaining,
        block_size=config.block_size,
        capacity=config.num_sets * remaining * config.block_size,
    )


def optimize_with_locking(
    cfg,
    config: CacheConfig,
    timing: TimingModel,
    locked_ways: int = 1,
    options=None,
):
    """The hybrid scheme of the paper's refs [16]/[2]: lock + prefetch.

    The hottest blocks (by worst-case execution count) are pinned into
    ``locked_ways`` ways per set; the paper's prefetch optimization then
    runs against the residual (unlocked) ways.  Locked references always
    hit, never disturb the unlocked LRU state, and are never prefetch
    targets.

    Args:
        cfg: The program (not mutated).
        config: The *full* cache configuration.
        timing: Timing model.
        locked_ways: Ways to lock per set (1 .. associativity-1).
        options: Base optimizer options; ``locked_blocks`` is filled in.

    Returns:
        ``(locked_blocks, optimized_cfg, report, residual)`` where
        ``report`` is the optimizer's report under the residual
        configuration with the locked blocks always hitting.

    Note:
        Lockdown pins *address-space blocks* (as the hardware's lockdown
        registers do): if the optimizer's insertions shift code across
        the locked block boundaries, the locked addresses still hit —
        the selection may just become less profitable, never unsound.
    """
    from repro.core.optimizer import OptimizerOptions, optimize
    import dataclasses

    residual = residual_config(config, locked_ways)
    # The locked ways are themselves a ``locked_ways``-way cache over
    # the same sets: its per-set capacity is the selection's cap.
    locked = select_locked_blocks(
        build_acfg(cfg, config.block_size),
        residual_config(config, config.associativity - locked_ways),
    )

    base = options or OptimizerOptions()
    hybrid_options = dataclasses.replace(base, locked_blocks=frozenset(locked))
    optimized, report = optimize(cfg, residual, timing, options=hybrid_options)
    return frozenset(locked), optimized, report, residual


def simulate_locked(
    cfg: ControlFlowGraph,
    config: CacheConfig,
    timing: TimingModel,
    locked_blocks: Set[int],
    seed: int = 0,
    base_address: int = 0,
) -> SimulationResult:
    """Concrete run with a fully locked cache.

    The preload of the locked blocks is charged as one DRAM transfer per
    locked block (``fills``/``demand_misses`` bookkeeping: preloads count
    as fills but not as demand misses, since they happen at task load).

    Returns:
        A :class:`SimulationResult` comparable to :func:`repro.sim.simulate`.
    """
    for block in locked_blocks:
        if not isinstance(block, int) or block < 0:
            raise SimulationError(f"invalid locked block id {block!r}")
    hits = misses = 0
    for plan in fetch_plans(cfg, config, seed, base_address=base_address):
        for block, addresses, is_prefetch, _ in plan:
            if is_prefetch:
                raise SimulationError(
                    "locked-cache simulation expects a prefetch-free program"
                )
            if block in locked_blocks:
                hits += len(addresses)
            else:
                misses += len(addresses)
    result = SimulationResult(
        program=cfg.name,
        fetches=hits + misses,
        hits=hits,
        demand_misses=misses,
        fills=len(locked_blocks),
        memory_cycles=float(
            hits * timing.hit_cycles + misses * timing.miss_cycles
        ),
    )
    result.validate()
    return result
