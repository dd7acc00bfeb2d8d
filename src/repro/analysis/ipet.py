"""IPET as an explicit integer linear program (Section 3.2-3.3).

Casts the WCET-scenario determination into the ILP form of the Implicit
Path Enumeration Technique [11]: edge variables carry execution flow,
flow is conserved at every vertex, the source emits one unit, and the
objective maximises ``Σ t_w(r) · multiplier(r) · x_r`` where ``x_r`` is
the flow entering reference ``r``.

On the VIVU-expanded ACFG this ILP and the structural solver
(:mod:`repro.analysis.structural`) are two routes to the same optimum;
the test suite cross-checks them.  The ILP backend exists because it is
the form the paper (and the WCET literature) actually specifies, and it
generalises to irreducible graphs the structural argument does not cover.

Solved with ``scipy.optimize.milp`` (HiGHS).  Binary edge flows suffice:
loop multiplicities are folded into vertex weights by VIVU, so every
feasible flow is a single source→sink path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import AnalysisError, InfeasibleILPError
from repro.program.acfg import ACFG


@dataclass
class ILPSolution:
    """Solution of the IPET ILP.

    Attributes:
        objective: Optimal ``Σ t_w · n^w`` (memory contribution to WCET).
        n_w: Per-rid execution counts implied by the optimal flow.
        edge_flow: Flow value per edge, aligned with :func:`edge_list`.
    """

    objective: float
    n_w: List[int]
    edge_flow: List[int]


def edge_list(acfg: ACFG) -> List[tuple]:
    """Forward edges of the ACFG as ``(src, dst)`` pairs, in rid order."""
    edges = []
    for rid in range(len(acfg)):
        for succ in acfg.successors(rid):
            edges.append((rid, succ))
    return edges


def solve_ipet(acfg: ACFG, per_exec_time: Sequence[float]) -> ILPSolution:
    """Solve the IPET ILP for the WCET scenario.

    Args:
        acfg: The program's ACFG.
        per_exec_time: ``t_w(r)`` per rid (0 for non-REF vertices).

    Returns:
        The optimal :class:`ILPSolution`.

    Raises:
        InfeasibleILPError: If HiGHS reports no feasible flow (indicates
            a malformed graph).
    """
    n = len(acfg)
    if len(per_exec_time) != n:
        raise AnalysisError(
            f"per_exec_time has {len(per_exec_time)} entries, ACFG has {n}"
        )
    edges = edge_list(acfg)
    m = len(edges)
    if m == 0:
        raise AnalysisError("ACFG has no edges")

    # Vertex usage x_v = incoming flow (outgoing for the source).  Flow
    # conservation: in(v) == out(v) for interior vertices; out(source)=1;
    # in(sink)=1.
    weight = np.array(
        [per_exec_time[rid] * acfg.multiplier[rid] for rid in range(n)]
    )
    cost = np.zeros(m)
    for edge_idx, (_, dst) in enumerate(edges):
        cost[edge_idx] += weight[dst]
    cost[_out_edges(acfg, edges, acfg.source)] += 0.0  # source weight is 0

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for edge_idx, (src, dst) in enumerate(edges):
        # +1 leaving src, -1 entering dst.
        rows.append(src)
        cols.append(edge_idx)
        vals.append(1.0)
        rows.append(dst)
        cols.append(edge_idx)
        vals.append(-1.0)
    balance = sparse.coo_matrix((vals, (rows, cols)), shape=(n, m))
    rhs = np.zeros(n)
    rhs[acfg.source] = 1.0
    rhs[acfg.sink] = -1.0

    result = milp(
        c=-cost,  # milp minimises
        constraints=[LinearConstraint(balance, rhs, rhs)],
        integrality=np.ones(m),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise InfeasibleILPError(f"HiGHS failed: {result.message}")

    flow = [int(round(v)) for v in result.x]
    n_w = [0] * n
    n_w[acfg.source] = acfg.multiplier[acfg.source]
    for edge_idx, (_, dst) in enumerate(edges):
        if flow[edge_idx]:
            n_w[dst] = acfg.multiplier[dst]
    objective = float(sum(per_exec_time[r] * n_w[r] for r in range(n)))
    return ILPSolution(objective=objective, n_w=n_w, edge_flow=flow)


def _out_edges(acfg: ACFG, edges: List[tuple], rid: int) -> List[int]:
    return [idx for idx, (src, _) in enumerate(edges) if src == rid]
