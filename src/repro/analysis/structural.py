"""Exact WCET-path computation on the ACFG (structural IPET).

The paper determines the WCET scenario with IPET (Section 3.2-3.3): an
ILP maximising ``Σ t_bb · n_bb`` under flow conservation.  On the
VIVU-expanded ACFG that optimum has a closed form: because every loop is
represented by a FIRST instance (executes once per entry) and a REST
instance (executes ``bound - 1`` times per entry), the IPET optimum is a
*maximum-weight source→sink path* through the DAG where each vertex
weighs ``t_w(r) × multiplier(r)`` — the multiplier being the product of
``bound - 1`` factors of the enclosing REST contexts
(:func:`repro.program.vivu.execution_multiplier`).

:func:`solve_wcet_path` computes that optimum by dynamic programming in
``O(|R| + |E|)`` and returns both the bound and the per-vertex execution
counts ``n^w`` (the paper's ``n_bb^w`` at reference granularity:
``multiplier`` on the chosen path, ``0`` elsewhere).  The DP works on
straight-line runs, the ILP's basic blocks: it takes the max over
predecessors only at a run head, sums the run's interior with
:func:`itertools.accumulate` and builds the path from run ranges, so
the python work is per run, not per vertex.

:mod:`repro.analysis.ipet` solves the same problem as an explicit ILP
(scipy/HiGHS) — the test suite asserts both agree, which is the
repository's substitute for validating against a commercial IPET
implementation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.program.acfg import ACFG


@dataclass
class PathSolution:
    """Result of the WCET-path computation.

    Attributes:
        objective: The IPET optimum ``Σ t_w(r) · n^w(r)`` — the memory
            system's contribution to the WCET (``τ^p_w``, Eq. 3).
        n_w: Per-rid execution count in the WCET scenario.
        on_path: Per-rid indicator of membership in the WCET path.
        path: Vertex ids of the WCET path, source to sink.
    """

    objective: float
    n_w: List[int]
    on_path: List[bool]
    path: List[int]

    def count(self, rid: int) -> int:
        """``n^w`` of one vertex."""
        return self.n_w[rid]


def solve_wcet_path(acfg: ACFG, per_exec_time: Sequence[float]) -> PathSolution:
    """Maximum-weight path through the ACFG.

    Args:
        acfg: The program's ACFG (validated DAG).
        per_exec_time: ``t_w(r)`` for every rid — the per-execution
            worst-case memory time of the reference (0 for JOIN/SOURCE/
            SINK vertices).

    Returns:
        The WCET :class:`PathSolution`.
    """
    solution, _, _ = solve_wcet_path_tables(acfg, per_exec_time)
    return solution


def solve_wcet_path_tables(
    acfg: ACFG,
    per_exec_time: Sequence[float],
    warm: "Optional[tuple]" = None,
) -> "Tuple[PathSolution, List[float], List[int]]":
    """:func:`solve_wcet_path` exposing the DP tables for reuse.

    ``best[r]`` is the weight of the heaviest source→``r`` path and
    ``best_pred[r]`` the predecessor it comes through: at a vertex with
    several predecessors, the one of largest ``best``, the smallest rid
    among equals.  The sweep works one straight-line run
    (:meth:`~repro.program.acfg.ACFG.run_ends`) at a time: the max is
    taken at the run head only, the run's interior is a running sum
    (:func:`itertools.accumulate`, whose left-to-right additions are
    those of the vertex-by-vertex recurrence) and its ``best_pred`` is
    ``r - 1``.  The path is walked back from the sink one run head at a
    time, and ``path``/``on_path``/``n_w`` are filled by run ranges.

    Args:
        warm: Optional ``(boundary, base_best, base_best_pred)`` from a
            previous solve: table entries of every vertex below
            ``boundary`` are copied and the sweep starts at ``boundary``
            (mid-run, it is a run that starts late).
            The caller must guarantee the prefix recurrence inputs
            (weights, predecessor lists) are unchanged — the prefix
            entries are copied, not recomputed, so warm results are
            bit-identical to a cold solve when that holds.

    Returns:
        ``(solution, best, best_pred)`` — the solution plus the filled
        DP tables (do not mutate; they may be shared with later warm
        solves).
    """
    n = len(acfg)
    if len(per_exec_time) != n:
        raise AnalysisError(
            f"per_exec_time has {len(per_exec_time)} entries, ACFG has {n}"
        )
    # Multipliers are exact in float64, so this rounds like the scalar
    # ``float * int`` product.
    weight = (
        np.asarray(per_exec_time, dtype=np.float64)
        * np.asarray(acfg.multiplier, dtype=np.float64)
    ).tolist()
    best = [float("-inf")] * n
    best_pred = [-1] * n
    start = 0
    if warm is not None:
        boundary, base_best, base_best_pred = warm
        if 0 < boundary <= n and len(base_best) >= boundary and len(
            base_best_pred
        ) >= boundary:
            best[:boundary] = base_best[:boundary]
            best_pred[:boundary] = base_best_pred[:boundary]
            start = boundary
    pred = acfg._pred
    run_end = acfg.run_ends()
    rid = start
    while rid < n:
        end = run_end[rid]
        run = weight[rid:end]
        preds = pred[rid]
        if len(preds) == 1:
            chosen = preds[0]
        elif preds:
            # Deterministic tie-break: smallest rid among maximal
            # predecessors.
            chosen = max(preds, key=lambda p: (best[p], -p))
        elif rid == acfg.source:
            chosen = -1
        else:
            raise AnalysisError(f"vertex {rid} has no predecessors")
        if chosen != -1:
            run[0] = best[chosen] + run[0]
        best[rid:end] = accumulate(run)
        best_pred[rid] = chosen
        best_pred[rid + 1:end] = range(rid, end - 1)
        rid = end

    # Back from the sink: each step covers one run from its head to
    # the cursor, then jumps to the head's chosen predecessor.  Run
    # ends ascend with rid, so a run's head is the first rid sharing
    # its end.
    spans: List[Tuple[int, int]] = []
    cursor = acfg.sink
    while cursor != -1:
        head = bisect_left(run_end, run_end[cursor])
        spans.append((head, cursor + 1))
        cursor = best_pred[head]
    spans.reverse()
    if spans[0][0] != acfg.source:
        raise AnalysisError("WCET path does not start at the source")

    path: List[int] = []
    on_path = [False] * n
    n_w = [0] * n
    multiplier = acfg.multiplier
    for lo, hi in spans:
        path.extend(range(lo, hi))
        on_path[lo:hi] = [True] * (hi - lo)
        n_w[lo:hi] = multiplier[lo:hi]
    solution = PathSolution(
        objective=best[acfg.sink],
        n_w=n_w,
        on_path=on_path,
        path=path,
    )
    return solution, best, best_pred
