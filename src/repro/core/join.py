"""The prefetching join function ``J_SE`` (Algorithm 2, Figure 2).

Classical must-analysis joins abstract states by *intersection* — sound
for timing, but it discards exactly the information the optimizer needs:
which concrete blocks sit in the cache along the worst-case path.  The
paper therefore proposes a join tailored to prefetching: **propagate the
state of the entering edge that belongs to the WCET path**, falling back
to the costlier entering edge when neither is on the path (Algorithm 2
compares the edges' miss costs).

The optimizer applies this join at every ``JOIN`` vertex of the ACFG,
which makes its forward state walk equivalent to replaying the cache
along the WCET path while still assigning a state to every off-path
vertex (off-path insertions can still pay off — they can turn a
``NOT_CLASSIFIED`` reference after a convergence point into an
always-hit).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.structural import PathSolution
from repro.errors import OptimizationError
from repro.program.acfg import ACFG


def select_join_predecessor(
    acfg: ACFG, solution: PathSolution, join_rid: int
) -> int:
    """Pick the predecessor whose state ``J_SE`` propagates.

    Args:
        acfg: The program's ACFG.
        solution: WCET path solution (provides path membership and
            execution counts).
        join_rid: A ``JOIN`` vertex id.

    Returns:
        The chosen predecessor's rid: the unique predecessor on the WCET
        path when one exists, otherwise the predecessor with the largest
        worst-case execution count (the "costlier" edge of Algorithm 2),
        ties broken towards the smaller rid for determinism.
    """
    if not acfg.is_join(join_rid):
        raise OptimizationError(f"vertex {join_rid} is not a JOIN")
    preds: Sequence[int] = acfg.predecessors(join_rid)
    if not preds:
        raise OptimizationError(f"JOIN {join_rid} has no predecessors")
    on_path = [p for p in preds if solution.on_path[p]]
    if on_path:
        # The WCET path enters a join through exactly one edge; if the
        # DAG ever presented several (it cannot, the path is a chain),
        # determinism still holds via min().
        return min(on_path)
    return min(preds, key=lambda p: (-acfg.multiplier[p], p))
