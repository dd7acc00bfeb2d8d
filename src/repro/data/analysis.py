"""WCET analysis of the unlocked *data* cache.

The generalization the paper's Section 6 announces, using the exact
machinery the instruction side already has: the same abstract domains
(must / may / persistence) run over the ACFG, but with a **data access
plan** instead of the fetch stream:

* a scalar access (stride 0) has an exact block at every vertex;
* an array-walking access is exact in the FIRST context of its striding
  loop (iteration 1) and statically unknown in REST contexts — the
  conservative transfer ages every set (see
  :meth:`repro.cache.abstract.AbstractCacheState.unknown_access`);
* stores behave like loads cache-wise (write-allocate);
* software *data* prefetches update the state at their target when the
  target is exact.

The combined WCET (:func:`combined_wcet`) adds each vertex's data time
to its instruction-fetch time and solves one IPET path over the sum —
memory time is memory time, whichever cache serves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.structural import PathSolution, solve_wcet_path
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import WCETResult, analyze_wcet
from repro.cache.abstract import MayState, MustState
from repro.cache.classify import (
    Classification,
    DataflowResult,
    UNKNOWN_ACCESS,
    propagate,
)
from repro.cache.config import CacheConfig
from repro.cache.persistence import PersistenceState
from repro.data.model import DataAccess, DataKind
from repro.errors import AnalysisError
from repro.program.acfg import ACFG
from repro.program.vivu import FIRST


def data_access_of(acfg: ACFG, rid: int) -> Optional[DataAccess]:
    """The vertex's data access, or ``None``."""
    instr = acfg.instr[rid]
    if instr is None:
        return None
    return instr.data_access  # type: ignore[return-value]


def exact_data_block(
    acfg: ACFG, rid: int, block_size: int
) -> Optional[int]:
    """The statically exact data block of a vertex's access, if any.

    Scalar accesses are always exact.  Strided accesses are exact only
    when the vertex's context takes the striding loop's FIRST element
    (iteration 1 — offset contribution 0).
    """
    access = data_access_of(acfg, rid)
    if access is None:
        return None
    layout = acfg.cfg.data_layout
    if layout is None:
        raise AnalysisError("program has data accesses but no data layout")
    if access.stride == 0:
        return layout.region(access.region).address(access.offset) // block_size
    for element in acfg.context[rid]:
        if element.name == access.stride_loop:
            if element.kind == FIRST:
                return (
                    layout.region(access.region).address(access.offset)
                    // block_size
                )
            return None  # REST: input-dependent address
    return None  # access outside its striding loop's context: be safe


def build_data_plan(
    acfg: ACFG, config: CacheConfig
) -> List[Optional[tuple]]:
    """The per-vertex access plan of the data cache."""
    plan: List[Optional[tuple]] = [None] * len(acfg)
    for rid in acfg.ref_rids:
        access = data_access_of(acfg, rid)
        if access is None:
            continue
        block = exact_data_block(acfg, rid, config.block_size)
        if block is None:
            plan[rid] = (UNKNOWN_ACCESS,)
        else:
            plan[rid] = (block,)
    return plan


@dataclass
class DataCacheAnalysis:
    """Classification of every data access.

    Attributes:
        config: Data-cache configuration.
        classifications: Per-rid classification (``None`` where the
            vertex performs no data access).
        must: Must-domain results over the data plan.
        may: May-domain results (or ``None``).
        persistence: Persistence results (or ``None``).
    """

    config: CacheConfig
    classifications: List[Optional[Classification]]
    must: DataflowResult
    may: Optional[DataflowResult]
    persistence: Optional[DataflowResult]

    def classification(self, rid: int) -> Optional[Classification]:
        """Data classification of a vertex (``None`` = no data access)."""
        return self.classifications[rid]

    def count(self, kind: Classification) -> int:
        """Number of data accesses with the given classification."""
        return sum(1 for c in self.classifications if c is kind)


def analyze_data_cache(
    acfg: ACFG,
    config: CacheConfig,
    with_may: bool = True,
    with_persistence: bool = True,
) -> DataCacheAnalysis:
    """Classify every data access of ``acfg`` under a data cache.

    Accesses with statically unknown addresses are ``NOT_CLASSIFIED``
    (always charged the miss latency) and conservatively disturb the
    abstract states.
    """
    plan = build_data_plan(acfg, config)
    must = propagate(acfg, config, MustState(config), plan=plan)
    may = (
        propagate(acfg, config, MayState(config), plan=plan)
        if with_may
        else None
    )
    persistence = (
        propagate(acfg, config, PersistenceState(config), plan=plan)
        if with_persistence
        else None
    )
    classifications: List[Optional[Classification]] = [None] * len(acfg)
    for rid in acfg.ref_rids:
        if plan[rid] is None:
            continue
        op = plan[rid][0]
        if op == UNKNOWN_ACCESS:
            classifications[rid] = Classification.NOT_CLASSIFIED
            continue
        must_in = must.in_states[rid]
        may_in = may.in_states[rid] if may is not None else None
        pers_in = persistence.in_states[rid] if persistence is not None else None
        if must_in is not None and op in must_in:
            classifications[rid] = Classification.ALWAYS_HIT
        elif pers_in is not None and pers_in.is_persistent(op):
            classifications[rid] = Classification.PERSISTENT
        elif may is not None and may_in is not None and op not in may_in:
            classifications[rid] = Classification.ALWAYS_MISS
        else:
            classifications[rid] = Classification.NOT_CLASSIFIED
    return DataCacheAnalysis(config, classifications, must, may, persistence)


def data_ref_times(
    acfg: ACFG,
    analysis: DataCacheAnalysis,
    timing: TimingModel,
) -> List[float]:
    """Per-execution worst-case *data* memory time per vertex.

    A data-prefetch access costs nothing here beyond its issue slot
    (charged on the instruction side); loads/stores cost the data
    cache's hit or miss latency.
    """
    times = [0.0] * len(acfg)
    for rid in acfg.ref_rids:
        access = data_access_of(acfg, rid)
        if access is None:
            continue
        if access.kind is DataKind.PREFETCH:
            continue  # non-blocking transfer; issue slot charged as code
        classification = analysis.classification(rid)
        assert classification is not None
        if classification.is_hit:
            times[rid] = float(timing.hit_cycles)
        else:
            times[rid] = float(timing.miss_cycles)
    return times


@dataclass
class CombinedWCET:
    """Unified instruction+data WCET of one program.

    Attributes:
        instruction: The instruction-side analysis (its ``tau_w``
            includes only code fetch time).
        data: Data-cache classification.
        t_total: Per-vertex combined time (fetch + data).
        solution: IPET path over the combined weights.
        data_persistent_charged: Persistent data blocks charged one
            first-miss each.
        data_miss_penalty: Data-side miss penalty (cycles) used for the
            persistence charges.
    """

    instruction: WCETResult
    data: DataCacheAnalysis
    t_total: List[float]
    solution: PathSolution
    data_persistent_charged: frozenset
    data_miss_penalty: float

    @property
    def data_persistence_penalty(self) -> float:
        """One-time first-miss charges of persistent data blocks."""
        return len(self.data_persistent_charged) * self.data_miss_penalty

    @property
    def tau_w(self) -> float:
        """Combined memory contribution to the WCET."""
        return (
            self.solution.objective
            + self.instruction.persistence_penalty
            + self.data_persistence_penalty
        )

    @property
    def data_misses(self) -> int:
        """Worst-case data misses along the combined path (including
        one first-miss per charged persistent data block)."""
        total = len(self.data_persistent_charged)
        for rid in self.instruction.acfg.ref_rids:
            classification = self.data.classification(rid)
            access = data_access_of(self.instruction.acfg, rid)
            if access is None or access.kind is DataKind.PREFETCH:
                continue
            if self.solution.n_w[rid] and not (
                classification is not None and classification.is_hit
            ):
                total += self.solution.n_w[rid]
        return total


def combined_wcet(
    acfg: ACFG,
    icache: CacheConfig,
    dcache: CacheConfig,
    timing: TimingModel,
    data_timing: Optional[TimingModel] = None,
    with_persistence: bool = True,
) -> CombinedWCET:
    """WCET with split instruction/data caches.

    Args:
        acfg: The program's ACFG (built with the *instruction* cache's
            block size).
        icache: Instruction-cache configuration.
        dcache: Data-cache configuration.
        timing: Instruction-side timing.
        data_timing: Data-side timing (defaults to ``timing``).
        with_persistence: Analysis fidelity for both sides.

    Returns:
        The :class:`CombinedWCET`.
    """
    dtiming = data_timing or timing
    instruction = analyze_wcet(
        acfg, icache, timing, with_persistence=with_persistence
    )
    data = analyze_data_cache(
        acfg, dcache, with_persistence=with_persistence
    )
    t_data = data_ref_times(acfg, data, dtiming)
    t_total = [
        instruction.t_w[rid] + t_data[rid]
        for rid in range(len(acfg))
    ]
    solution = solve_wcet_path(acfg, t_total)
    charged = set()
    for rid in acfg.ref_rids:
        if solution.n_w[rid] == 0:
            continue
        if data.classification(rid) is Classification.PERSISTENT:
            block = exact_data_block(acfg, rid, dcache.block_size)
            if block is not None:
                charged.add(block)
    return CombinedWCET(
        instruction=instruction,
        data=data,
        t_total=t_total,
        solution=solution,
        data_persistent_charged=frozenset(charged),
        data_miss_penalty=float(dtiming.miss_penalty_cycles),
    )