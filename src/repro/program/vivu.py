"""VIVU contexts (virtual inlining & virtual unrolling).

The paper relies on the VIVU transformation of Martin/Alt/Wilhelm (used by
the classical WCET analysis it builds on, ref. [8]) to turn a cyclic CFG
into an acyclic abstract CFG:

* every loop is *virtually unrolled once*: each body instruction appears
  in a ``FIRST`` context (iteration 1) and a ``REST`` context (iterations
  2..bound, analysed collectively), and
* every function is *virtually inlined*: each body instruction appears
  once per call site.

A context is a tuple of :class:`ContextElement` from outermost to
innermost.  Contexts name ACFG vertices: the pair ``(instruction uid,
context)`` is stable across rebuilds, which is what lets the optimizer
resume its reverse walk after inserting a prefetch (insertion changes
vertex ids, not instruction identities).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.program.cfg import ControlFlowGraph

#: Marker for the first loop iteration.
FIRST = "F"
#: Marker for all iterations after the first (2..bound, collectively).
REST = "R"
#: Marker kind for call-site inlining elements.
CALL = "C"


class ContextElement(NamedTuple):
    """One nesting level of a VIVU context.

    ``kind`` is :data:`FIRST`/:data:`REST` for loop unrolling elements (in
    which case ``name`` is the loop name) or :data:`CALL` for virtual
    inlining (``name`` is the call-site id).

    A named tuple, so that contexts — which key the ACFG's
    ``(uid, context)`` index — hash and compare at C speed.  Its hash is
    ``hash((kind, name))``.
    """

    kind: str
    name: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == CALL:
            return f"@{self.name}"
        return f"{self.name}.{self.kind}"


#: A full VIVU context: outermost element first.
Context = Tuple[ContextElement, ...]

#: The empty (top-level) context.
TOP: Context = ()


def enter_loop_first(ctx: Context, loop_name: str) -> Context:
    """Context for the first iteration of ``loop_name``."""
    return ctx + (ContextElement(FIRST, loop_name),)


def enter_loop_rest(ctx: Context, loop_name: str) -> Context:
    """Context for iterations 2..bound of ``loop_name``."""
    return ctx + (ContextElement(REST, loop_name),)


def enter_call(ctx: Context, site_id: str) -> Context:
    """Context for the body of a function inlined at ``site_id``."""
    return ctx + (ContextElement(CALL, site_id),)


def context_label(ctx: Context) -> str:
    """Human-readable rendering, e.g. ``"loop0.F/loop1.R"``."""
    if not ctx:
        return "<top>"
    return "/".join(str(el) for el in ctx)


def execution_multiplier(cfg: ControlFlowGraph, ctx: Context) -> int:
    """Worst-case executions of a vertex in ``ctx`` per execution of its
    outermost enclosing construct, assuming the vertex lies on the worst
    path.

    Each ``FIRST`` element contributes a factor 1, each ``REST`` element a
    factor ``bound - 1`` (iterations 2..bound), each call element 1.  The
    WCET solver multiplies this by the path-selection indicator to obtain
    the IPET count ``n^w``.
    """
    mult = 1
    for el in ctx:
        if el.kind == REST:
            mult *= cfg.loops[el.name].bound - 1
        # FIRST and CALL elements do not scale the count.
    return mult


def context_depth(ctx: Context) -> int:
    """Number of nesting elements in the context."""
    return len(ctx)
