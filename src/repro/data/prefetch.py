"""WCET-safe *data* prefetch insertion (the paper's Section-6 program).

A direct generalization of the instruction-side optimizer: find data
accesses that still pay for a miss in the worst case, insert a software
data prefetch far enough upstream to hide the data-cache latency, and
keep the insertion only if the *combined* (instruction + data) memory
contribution to the WCET does not grow while the worst-case data miss
count shrinks — Theorem 1 extended to the split-cache system.

Candidates are restricted to accesses with statically exact addresses
(scalars, and array walks in their FIRST iteration context): an
input-dependent address cannot be prefetched by a static instruction.
Streaming (strided) accesses are prefetched with the same stride, so
the inserted instruction prefetches the *current* iteration's block —
the classic software data-prefetch idiom; its worst-case benefit is
assessed conservatively through the exact-context analysis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.analysis.slack import min_path_slack
from repro.analysis.timing import TimingModel
from repro.cache.classify import Classification
from repro.cache.config import CacheConfig
from repro.core.relocation import insertion_point_after
from repro.data.analysis import (
    CombinedWCET,
    combined_wcet,
    data_access_of,
    exact_data_block,
)
from repro.data.model import DataAccess, DataKind
from repro.errors import OptimizationError
from repro.program.acfg import build_acfg
from repro.program.cfg import ControlFlowGraph

#: Numerical slack for float comparisons.
_EPS = 1e-6


@dataclass
class DataPrefetchReport:
    """Outcome of :func:`optimize_data`.

    Attributes:
        tau_original: Combined τ_w before optimization.
        tau_final: Combined τ_w after.
        data_misses_original: Worst-case data misses before.
        data_misses_final: Worst-case data misses after.
        inserted: ``(block_name, index, region, offset)`` per accepted
            prefetch.
        candidates_evaluated: Gate evaluations performed.
    """

    tau_original: float
    tau_final: float
    data_misses_original: int
    data_misses_final: int
    inserted: List[Tuple[str, int, str, int]] = field(default_factory=list)
    candidates_evaluated: int = 0

    @property
    def wcet_reduction(self) -> float:
        """Relative combined τ_w reduction."""
        if self.tau_original == 0:
            return 0.0
        return 1.0 - self.tau_final / self.tau_original


def optimize_data(
    cfg: ControlFlowGraph,
    icache: CacheConfig,
    dcache: CacheConfig,
    timing: TimingModel,
    data_timing: Optional[TimingModel] = None,
    max_insertions: int = 64,
    max_evaluations: Optional[int] = 200,
    inplace: bool = False,
) -> Tuple[ControlFlowGraph, DataPrefetchReport]:
    """Insert WCET-safe data prefetches into ``cfg``.

    Args:
        cfg: Program with data accesses (not mutated unless ``inplace``).
        icache: Instruction-cache configuration.
        dcache: Data-cache configuration.
        timing: Instruction-side timing.
        data_timing: Data-side timing (defaults to ``timing``).
        max_insertions: Cap on accepted prefetches.
        max_evaluations: Gate-evaluation budget (``None`` = unlimited).
        inplace: Mutate ``cfg`` instead of a clone.

    Returns:
        ``(optimized_program, report)`` with the combined τ_w provably
        not increased.
    """
    dtiming = data_timing or timing
    work = cfg if inplace else cfg.clone()
    acfg = build_acfg(work, icache.block_size)
    combined = combined_wcet(acfg, icache, dcache, timing, dtiming)
    report = DataPrefetchReport(
        tau_original=combined.tau_w,
        tau_final=combined.tau_w,
        data_misses_original=combined.data_misses,
        data_misses_final=combined.data_misses,
    )
    rejected: Set[Tuple] = set()
    evaluations = 0

    while len(report.inserted) < max_insertions:
        accepted = False
        for rid, access, block in _candidates(acfg, combined, dcache):
            key = (acfg.instr[rid].uid, acfg.context[rid])
            if key in rejected:
                continue
            anchor = _anchor_with_slack(
                acfg, combined, rid, float(dtiming.prefetch_latency)
            )
            if anchor is None:
                rejected.add(key)
                continue
            point = insertion_point_after(acfg, anchor)
            if point is None:
                rejected.add(key)
                continue
            if max_evaluations is not None and evaluations >= max_evaluations:
                return work, report
            evaluations += 1
            report.candidates_evaluated = evaluations
            prefetch_access = dataclasses.replace(
                access, kind=DataKind.PREFETCH
            )
            prefetch = work.insert_data_prefetch(
                point.block_name, point.index, prefetch_access
            )
            new_acfg = build_acfg(work, icache.block_size)
            new_combined = combined_wcet(
                new_acfg, icache, dcache, timing, dtiming
            )
            if (
                new_combined.tau_w <= combined.tau_w + _EPS
                and new_combined.data_misses < combined.data_misses
            ):
                report.inserted.append(
                    (point.block_name, point.index, access.region, access.offset)
                )
                acfg, combined = new_acfg, new_combined
                accepted = True
                break
            work.remove_prefetch(prefetch.uid)
            rejected.add(key)
        if not accepted:
            break

    report.tau_final = combined.tau_w
    report.data_misses_final = combined.data_misses
    if report.tau_final > report.tau_original + _EPS:
        raise OptimizationError(
            "data prefetching must not increase the combined WCET"
        )
    return work, report


def _candidates(acfg, combined: CombinedWCET, dcache: CacheConfig):
    """On-path exact-address data accesses still paying for misses."""
    out = []
    for rid in acfg.ref_rids:
        if combined.solution.n_w[rid] == 0:
            continue
        access = data_access_of(acfg, rid)
        if access is None or access.kind is DataKind.PREFETCH:
            continue
        classification = combined.data.classification(rid)
        if classification is None or classification is Classification.ALWAYS_HIT:
            continue
        block = exact_data_block(acfg, rid, dcache.block_size)
        if block is None:
            continue
        out.append((rid, access, block))
    # Heaviest misses first: the greedy order that pays off soonest.
    out.sort(key=lambda item: -combined.solution.n_w[item[0]])
    return out


def _anchor_with_slack(
    acfg, combined: CombinedWCET, use_rid: int, latency: float
) -> Optional[int]:
    """Earliest upstream reference with >= ``latency`` of path slack.

    Walks the combined WCET path backwards from the use; the first
    position whose minimum combined-time distance to the use covers the
    latency becomes the insertion anchor.
    """
    path = combined.solution.path
    try:
        position = path.index(use_rid)
    except ValueError:
        return None
    best: Optional[int] = None
    for back in range(position - 1, -1, -1):
        rid = path[back]
        if acfg.instr[rid] is None:
            continue
        slack = min_path_slack(acfg, combined.t_total, rid, use_rid)
        if slack >= latency:
            best = rid
            break
    return best
