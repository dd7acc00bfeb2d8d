"""Path-slack computations over the ACFG (Eq. 5 and variants).

Shared by the optimizer's joint improvement criterion
(:mod:`repro.core.profit`), the guarantee checkers, and the WCET
driver's prefetch-latency guard.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.errors import OptimizationError
from repro.program.acfg import ACFG


def min_path_slack(
    acfg: ACFG,
    t_w: Sequence[float],
    from_rid: int,
    to_rid: int,
) -> float:
    """Minimum memory time between two vertices (conservative Eq. 5).

    Sums ``t_w`` over the references *strictly between* ``from_rid`` and
    ``to_rid`` along the cheapest DAG path; endpoint weights are
    excluded, matching Eq. 5's span ``r_{i+1} .. r_{j-1}``.

    Returns:
        The slack in cycles; ``inf`` when ``to_rid`` is unreachable from
        ``from_rid``.
    """
    if not 0 <= from_rid < len(acfg) or not 0 <= to_rid < len(acfg):
        raise OptimizationError("slack endpoints out of range")
    if to_rid <= from_rid:
        raise OptimizationError(
            f"slack requires from_rid < to_rid, got {from_rid} >= {to_rid}"
        )
    infinity = math.inf
    dist = [infinity] * (to_rid + 1)
    dist[from_rid] = 0.0
    for rid in range(from_rid + 1, to_rid + 1):
        best = infinity
        for pred in acfg.predecessors(rid):
            if pred >= from_rid and dist[pred] < best:
                best = dist[pred]
        if best is infinity:
            continue
        if rid == to_rid:
            return best  # exclude the endpoint's own weight
        weight = t_w[rid] if acfg.instr[rid] is not None else 0.0
        dist[rid] = best + weight
    return infinity


def min_path_slacks(
    acfg: ACFG,
    t_w: Sequence[float],
    from_rid: int,
    to_rids: Sequence[int],
) -> Dict[int, float]:
    """Batched :func:`min_path_slack`: one DP sweep, many targets.

    Computes ``{to: min_path_slack(acfg, t_w, from_rid, to)}`` for every
    ``to`` in ``to_rids`` with a single forward pass up to the largest
    target.  The recurrence and its float additions are exactly those of
    the per-pair function, so results are bit-identical — a target that
    lies between ``from_rid`` and a later target also contributes its
    own weight to paths through it, just as it does in the per-pair DP.
    """
    if not to_rids:
        return {}
    if not 0 <= from_rid < len(acfg):
        raise OptimizationError("slack endpoints out of range")
    for to_rid in to_rids:
        if not 0 <= to_rid < len(acfg):
            raise OptimizationError("slack endpoints out of range")
        if to_rid <= from_rid:
            raise OptimizationError(
                f"slack requires from_rid < to_rid, got {from_rid} >= {to_rid}"
            )
    return _path_slacks(acfg, acfg.weights(t_w), from_rid, to_rids)


def _forward_sweep(
    acfg: ACFG, w: List[float], from_rid: int, last: int
) -> List[float]:
    """Min-plus distances ``dist[rid]`` from ``from_rid`` up to ``last``.

    ``dist[from_rid]`` is 0 and ``dist[rid] = min(dist[preds]) + w[rid]``
    (``inf`` below ``from_rid`` and where unreachable).  Runs of
    vertices fed only by their rid predecessor
    (:meth:`~repro.program.acfg.ACFG.run_ends`) are summed by
    :func:`itertools.accumulate`, whose left-to-right additions are
    those of the vertex-by-vertex recurrence.
    """
    infinity = math.inf
    pred = acfg._pred
    run_end = acfg.run_ends()
    stop = last + 1
    dist = [infinity] * stop
    dist[from_rid] = 0.0
    rid = from_rid + 1
    while rid < stop:
        preds = pred[rid]
        if len(preds) == 1:
            best = dist[preds[0]]
        else:
            best = min([dist[p] for p in preds])
        end = run_end[rid]
        if end > stop:
            end = stop
        if end - rid == 1:
            dist[rid] = best + w[rid]
        else:
            run = w[rid:end]
            run[0] = best + run[0]
            dist[rid:end] = accumulate(run)
        rid = end
    return dist


def _path_slacks(
    acfg: ACFG, w: List[float], from_rid: int, to_rids: Sequence[int]
) -> Dict[int, float]:
    """:func:`min_path_slacks` over a prepared weight list
    (:meth:`~repro.program.acfg.ACFG.weights`), unchecked."""
    dist = _forward_sweep(acfg, w, from_rid, max(to_rids))
    pred = acfg._pred
    out: Dict[int, float] = {}
    for to_rid in to_rids:
        # The endpoint's own weight is excluded: its best in-distance.
        preds = pred[to_rid]
        if len(preds) == 1:
            out[to_rid] = dist[preds[0]]
        else:
            out[to_rid] = min([dist[p] for p in preds])
    return out


def min_tail_slack(
    acfg: ACFG,
    t_w: Sequence[float],
    evictor_rid: int,
    exit_rids: Sequence[int],
) -> float:
    """The loop-tail half of :func:`wraparound_slack`.

    ``min over latches e >= evictor of (minpath(evictor→e) + t_w(e))`` —
    independent of the use, so the latency guard computes it once per
    (prefetch, loop instance) and shares it across every wrapped use.
    """
    return _tail_slack(acfg, acfg.weights(t_w), evictor_rid, exit_rids)


def _tail_slack(
    acfg: ACFG, w: List[float], evictor_rid: int, exit_rids: Sequence[int]
) -> float:
    """:func:`min_tail_slack` over a prepared weight list."""
    after = [e for e in exit_rids if e > evictor_rid]
    parts = _path_slacks(acfg, w, evictor_rid, after) if after else {}
    best_tail = math.inf
    for exit_rid in exit_rids:
        if exit_rid == evictor_rid:
            tail = 0.0
        elif exit_rid > evictor_rid:
            tail = parts[exit_rid] + w[exit_rid]
        else:
            continue
        best_tail = min(best_tail, tail)
    return best_tail


def wraparound_slack(
    acfg: ACFG,
    t_w: Sequence[float],
    evictor_rid: int,
    use_rid: int,
    join_rid: int,
    exit_rids: Sequence[int],
) -> float:
    """Eq. 5 slack for a loop-carried (wrap-around) reuse.

    The covered references are those from the anchor to the loop latch,
    plus those from the loop entry to the use:

    ``slack = min over latches e of (minpath(anchor→e) + t_w(e))
            + minpath(join→use)``.
    """
    best_tail = math.inf
    for exit_rid in exit_rids:
        if exit_rid == evictor_rid:
            tail = 0.0
        elif exit_rid > evictor_rid:
            part = min_path_slack(acfg, t_w, evictor_rid, exit_rid)
            weight = t_w[exit_rid] if acfg.instr[exit_rid] is not None else 0.0
            tail = part + weight
        else:
            continue
        best_tail = min(best_tail, tail)
    if best_tail is math.inf:
        return math.inf
    if use_rid <= join_rid:
        raise OptimizationError("wrap-around use must follow the loop join")
    head = min_path_slack(acfg, t_w, join_rid, use_rid)
    return best_tail + head


def rest_instance_spans(acfg: ACFG) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """REST instance spans ``(entry_join, last_rid, exit_rids)``.

    Derived from the analysis-only back edges, sorted by entry join so
    ``reversed()`` visits innermost instances first.
    """
    by_join: Dict[int, List[int]] = {}
    for src, dst in acfg.back_edges:
        by_join.setdefault(dst, []).append(src)
    spans = [
        (join, max(exits), tuple(sorted(exits)))
        for join, exits in by_join.items()
    ]
    spans.sort()
    return spans
