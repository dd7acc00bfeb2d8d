"""Abstract control-flow graph (Definitions 6 and 7 of the paper).

The ACFG is the per-reference, context-expanded, acyclic program
representation that both the classical cache analysis and the paper's
reverse-order optimizer operate on:

* one ``REF`` vertex per (instruction, VIVU context) pair — a *reference
  to a memory item*,
* explicit ``JOIN`` vertices wherever convergent execution paths meet
  (after conditionals/switches, at loop ``REST`` entries and loop exits),
  hosting the join functions of Section 4,
* polar ``SOURCE`` (●) and ``SINK`` (○) vertices.

Loops are unrolled once per the VIVU transformation: the body appears in
a ``FIRST`` and a ``REST`` instance; the ``REST`` back edge is *broken*
in the exported DAG but remembered in :attr:`ACFG.back_edges` so the
fixpoint cache analysis can close the loop (a ``REST`` instance stands
for every iteration after the first).

Vertices are created in topological order, so the vertex id (``rid``)
doubles as a topological index; the reverse walk of Algorithm 3 is simply
descending-rid iteration.  A vertex is nothing but its rid: its data
are per-rid columns of :class:`ACFG`, and its kind is derived from them
(see the class docstring).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProgramModelError
from repro.program.cfg import ControlFlowGraph
from repro.program.instructions import Instruction
from repro.program.layout import AddressLayout
from repro.program.structure import (
    BlockNode,
    CallNode,
    IfElseNode,
    LoopNode,
    SeqNode,
    StructureNode,
    SwitchNode,
)
from repro.program.vivu import (
    Context,
    TOP,
    context_label,
    enter_call,
    enter_loop_first,
    enter_loop_rest,
    execution_multiplier,
)


#: Placeholder for the flat arrays of a graph under construction.
_EMPTY = np.empty(0, dtype=np.int64)


def _with_inserted(column: list, positions: List[int], values: list) -> list:
    """``column`` with ``values[k]`` inserted before old index
    ``positions[k]`` (ascending), by slicing — the list counterpart of
    ``np.insert``."""
    out = column[:positions[0]]
    ends = positions[1:] + [len(column)]
    for position, end, value in zip(positions, ends, values):
        out.append(value)
        out += column[position:end]
    return out


class ACFG:
    """The acyclic abstract control-flow graph of one program.

    Build with :func:`build_acfg`.  The graph is immutable once built;
    after the optimizer mutates the CFG it constructs a fresh ACFG
    (usually by :func:`splice_insertion`).

    A vertex is its rid; its data are columns indexed by rid.  Columns
    that are only copied — :attr:`instr`, :attr:`context`,
    :attr:`block_name`, :attr:`index_in_block`, :attr:`multiplier` and
    the predecessor tuples — are python lists, which a splice shares or
    slices.  Data that the splice and the kernel schedule compute on are
    flat numpy arrays, built by :meth:`_freeze` and spliced with
    ``np.insert``: ``uid_arr`` (instruction uid, ``-1`` off REF),
    ``ref_mask``, ``block_arr``/``target_arr`` (memory block and
    prefetch target block, ``-1`` when absent), and ``first_pred``/
    ``in_degree``/``out_degree`` (first predecessor, ``-1`` at the
    source).  The python walkers read list views of them
    (``_ref_block``, ``_target_block``, :meth:`run_ends`).

    A vertex's kind is not stored: ``rid`` is a REF vertex when
    ``instr[rid] is not None`` (:attr:`ref_rids`, ``ref_mask``), a
    prefetch when it is in :attr:`prefetch_rids`, a pole when it is
    :attr:`source` or :attr:`sink`, and a JOIN otherwise
    (:meth:`is_join`).
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        layout: AddressLayout,
        block_size: int,
    ):
        self.cfg = cfg
        self.layout = layout
        #: Memory block size in bytes: ``S(r)`` is an item's
        #: ``address // block_size``.
        self.block_size = block_size
        #: Per-rid columns (read-only; see the class docstring): the
        #: referenced instruction (``None`` off REF), its VIVU context
        #: (``TOP`` at the poles), its basic block (``None`` off REF) and
        #: its position in that block (``-1`` off REF).
        self.instr: List[Optional[Instruction]] = []
        self.context: List[Context] = []
        self.block_name: List[Optional[str]] = []
        self.index_in_block: List[int] = []
        #: Worst-case execution multiplier per vertex (context product).
        self.multiplier: List[int] = []
        self._pred: List[List[int]] = []
        #: Successor tuples; ``None`` on a spliced graph until first use
        #: (see :meth:`successor_table`).
        self._succ: Optional[List[List[int]]] = []
        #: Analysis-only loop-closing edges (REST exit -> REST-entry join).
        self.back_edges: List[Tuple[int, int]] = []
        self.source: int = -1
        self.sink: int = -1
        #: (uid, context) -> rid; ``None`` until first use on a spliced
        #: graph (see :meth:`key_index`).
        self._by_key: Optional[Dict[Tuple[int, Context], int]] = {}
        #: Flat per-rid arrays (see the class docstring).
        self.uid_arr = _EMPTY
        self.ref_mask = _EMPTY.astype(bool)
        self.block_arr = _EMPTY
        self.target_arr = _EMPTY
        self.first_pred = _EMPTY
        self.in_degree = _EMPTY
        self.out_degree = _EMPTY
        #: The REF rids and the prefetch rids (data prefetches
        #: included), both ascending — what the reference walks iterate.
        self.ref_rids: List[int] = []
        self.prefetch_rids: List[int] = []
        #: ``block_arr``/``target_arr`` as lists with ``None`` for
        #: ``-1`` — what the python walkers index.
        self._ref_block: List[Optional[int]] = []
        self._target_block: List[Optional[int]] = []
        self._run_end: Optional[List[int]] = None
        #: Context -> execution multiplier; contexts repeat per block
        #: instance, so memoizing saves a context walk per vertex.
        self._mult_cache: Dict[Context, int] = {}

    # ------------------------------------------------------------------
    # construction helpers (used by build_acfg)
    # ------------------------------------------------------------------
    def _new_vertex(
        self,
        instr: Optional[Instruction],
        context: Context,
        block_name: Optional[str],
        index_in_block: int,
        preds: Sequence[int],
    ) -> int:
        rid = len(self.instr)
        self.instr.append(instr)
        self.context.append(context)
        self.block_name.append(block_name)
        self.index_in_block.append(index_in_block)
        self._succ.append([])
        self._pred.append([])
        mult = self._mult_cache.get(context)
        if mult is None:
            mult = execution_multiplier(self.cfg, context)
            self._mult_cache[context] = mult
        self.multiplier.append(mult)
        for pred in preds:
            self._succ[pred].append(rid)
            self._pred[rid].append(pred)
        if instr is not None:
            key = (instr.uid, context)
            if key in self._by_key:
                raise ProgramModelError(
                    f"duplicate ACFG vertex for instruction {instr.uid} in "
                    f"context {context_label(context)}"
                )
            self._by_key[key] = rid
        return rid

    def _freeze(self) -> None:
        """Convert adjacency to tuples once construction is complete, so
        the hot accessors below can return them without copying, and
        derive the flat arrays."""
        self._pred = [tuple(p) for p in self._pred]  # type: ignore[misc]
        self._succ = [tuple(s) for s in self._succ]  # type: ignore[misc]
        instrs = self.instr
        self.uid_arr = np.array(
            [-1 if instr is None else instr.uid for instr in instrs],
            dtype=np.int64,
        )
        self.ref_mask = np.array(
            [instr is not None for instr in instrs], dtype=bool
        )
        self.first_pred = np.array(
            [p[0] if p else -1 for p in self._pred], dtype=np.int64
        )
        self.in_degree = np.array([len(p) for p in self._pred], dtype=np.int64)
        self.out_degree = np.array(
            [len(s) for s in self._succ], dtype=np.int64
        )
        self.ref_rids = np.flatnonzero(self.ref_mask).tolist()
        self.prefetch_rids = [
            rid for rid in self.ref_rids if instrs[rid].is_prefetch
        ]
        self._gather_blocks()

    def _gather_blocks(self) -> None:
        """``block_arr``/``target_arr`` (and their list views) from the
        layout's address array: one gather for the REF vertices, one for
        the prefetch targets."""
        layout, block_size = self.layout, self.block_size
        n = len(self.instr)
        block_arr = np.full(n, -1, dtype=np.int64)
        block_arr[self.ref_mask] = layout.blocks_of(
            self.uid_arr[self.ref_mask], block_size
        )
        ref_block = block_arr.astype(object)
        ref_block[~self.ref_mask] = None
        target_arr = np.full(n, -1, dtype=np.int64)
        target_block: List[Optional[int]] = [None] * n
        instrs = self.instr
        targeted = [
            rid for rid in self.prefetch_rids
            if instrs[rid].prefetch_target is not None
        ]
        if targeted:
            targets = layout.blocks_of(
                [instrs[rid].prefetch_target for rid in targeted], block_size
            )
            target_arr[targeted] = targets
            for rid, target in zip(targeted, targets.tolist()):
                target_block[rid] = target
        self.block_arr = block_arr
        self.target_arr = target_arr
        self._ref_block = ref_block.tolist()
        self._target_block = target_block

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instr)

    def successor_table(self) -> List[Tuple[int, ...]]:
        """Per-rid successor tuples (do not mutate).

        A spliced graph inverts its predecessor tuples on first use:
        only the optimizer's reverse walk and the relocation cursor read
        successors, and they run on a few accepted programs, not on
        every candidate.
        """
        if self._succ is None:
            # Every edge as (pred, rid), sorted by pred then rid: the
            # single-predecessor vertices from first_pred, the rest from
            # their tuples.
            pred = self._pred
            single = self.in_degree == 1
            multi = np.flatnonzero(~single).tolist()
            src = np.concatenate([
                self.first_pred[single],
                np.array([p for rid in multi for p in pred[rid]],
                         dtype=np.int64),
            ])
            dst = np.concatenate([
                np.flatnonzero(single),
                np.array([rid for rid in multi for _ in pred[rid]],
                         dtype=np.int64),
            ])
            order = np.lexsort((dst, src))
            dst = dst[order]
            starts = np.searchsorted(src[order], np.arange(len(pred)))
            out_degree = self.out_degree
            succ = list(zip(dst[np.minimum(starts, len(dst) - 1)].tolist()))
            for rid in np.flatnonzero(out_degree != 1).tolist():
                first = starts[rid]
                succ[rid] = tuple(dst[first:first + out_degree[rid]].tolist())
            self._succ = succ
        return self._succ  # type: ignore[return-value]

    def successors(self, rid: int) -> Sequence[int]:
        """Forward (DAG) successors of a vertex (do not mutate)."""
        return self.successor_table()[rid]

    def predecessors(self, rid: int) -> Sequence[int]:
        """Forward (DAG) predecessors of a vertex (do not mutate)."""
        return self._pred[rid]

    def is_join(self, rid: int) -> bool:
        """True for a JOIN vertex: neither a reference nor a pole.  (A
        REST-entry join can have a single predecessor, so the in-degree
        does not tell.)"""
        return (
            self.instr[rid] is None and rid != self.source and rid != self.sink
        )

    def by_key(self, uid: int, context: Context) -> Optional[int]:
        """Vertex id for (instruction uid, context), or ``None``."""
        return self.key_index().get((uid, context))

    def key_index(self) -> Dict[Tuple[int, Context], int]:
        """The whole ``(instruction uid, context) -> rid`` index.

        :func:`build_acfg` fills it as it goes (it doubles as the
        duplicate check); a spliced graph builds it on first use, since
        most candidate graphs are never queried by key.
        """
        if self._by_key is None:
            uids = self.uid_arr.tolist()
            contexts = self.context
            self._by_key = {
                (uids[rid], contexts[rid]): rid for rid in self.ref_rids
            }
        return self._by_key

    def weights(self, t_w: Sequence[float]) -> List[float]:
        """``t_w`` restricted to REF vertices (0 elsewhere): the per-rid
        weight list of the slack DPs, built once per analysis."""
        return [
            t if instr is not None else 0.0
            for t, instr in zip(t_w, self.instr)
        ]

    def run_ends(self) -> List[int]:
        """Per rid, the end of its straight-line run (cached).

        ``run_ends()[r]`` is the smallest ``e > r`` such that
        ``e == len(self)`` or vertex ``e`` is not fed by exactly its
        predecessor in rid order (``predecessors(e) != (e - 1,)``).
        Between a run head and its end, a forward min-plus sweep is a
        plain running sum, which the slack DPs evaluate at C speed.
        """
        if self._run_end is None:
            n = len(self.instr)
            rids = np.arange(n)
            heads = np.where(
                (self.in_degree != 1) | (self.first_pred != rids - 1), rids, n
            )
            # run_end[r] = min(heads[r + 1:] + [n]): a reversed running min.
            nxt = np.append(heads[1:], n)
            self._run_end = np.minimum.accumulate(nxt[::-1])[::-1].tolist()
        return self._run_end

    def block_of(self, rid: int) -> int:
        """``S(r)``: memory block id of a REF vertex's instruction."""
        block = self._ref_block[rid]
        if block is None:
            raise ProgramModelError(f"vertex {rid} references no memory item")
        return block

    def prefetch_target_block(self, rid: int) -> int:
        """Memory block an instruction-cache prefetch vertex loads."""
        target = self._target_block[rid]
        if target is None:
            raise ProgramModelError(f"vertex {rid} is not a prefetch")
        return target

    def target_block_or_none(self, rid: int) -> Optional[int]:
        """Like :meth:`prefetch_target_block` but ``None`` for non-
        prefetches and for *data* prefetches (which carry a data-access
        target instead of a code target)."""
        return self._target_block[rid]

    @property
    def ref_count(self) -> int:
        """Number of REF vertices (|R| in the paper's complexity terms)."""
        return len(self.ref_rids)

    def validate(self) -> None:
        """Check DAG invariants: edges ascend rid, poles are correct."""
        if self.source != 0 or self.instr[0] is not None:
            raise ProgramModelError("ACFG source must be vertex 0")
        if not 0 < self.sink == len(self) - 1 or self.instr[self.sink] is not None:
            raise ProgramModelError("ACFG sink must be the last vertex")
        for rid, succs in enumerate(self.successor_table()):
            for succ in succs:
                if succ <= rid:
                    raise ProgramModelError(
                        f"edge ({rid}, {succ}) violates topological order"
                    )
        for rid in range(1, len(self)):
            if not self._pred[rid]:
                raise ProgramModelError(f"vertex {rid} unreachable (no preds)")
        for src, dst in self.back_edges:
            if not self.is_join(dst):
                raise ProgramModelError(
                    f"back edge ({src}, {dst}) must target a JOIN vertex"
                )


def build_acfg(
    cfg: ControlFlowGraph,
    block_size: int,
    base_address: int = 0,
) -> ACFG:
    """Expand a structured CFG into its ACFG for a given memory block size.

    Performs the VIVU transformation: loops unrolled once (FIRST/REST
    instances, REST back edge recorded in :attr:`ACFG.back_edges`),
    function bodies inlined per call site.

    Args:
        cfg: The program (must carry its structure tree).
        block_size: Cache/memory block size in bytes (defines ``S(r)``).
        base_address: Base address for the layout.

    Returns:
        A validated :class:`ACFG`.
    """
    if cfg.structure is None:
        raise ProgramModelError("CFG has no structure tree; use ProgramBuilder")
    acfg = ACFG(cfg, AddressLayout(cfg, base_address), block_size)
    acfg.source = acfg._new_vertex(None, TOP, None, -1, ())

    exits = _expand(acfg, cfg.structure, TOP, [acfg.source])
    acfg.sink = acfg._new_vertex(None, TOP, None, -1, exits)
    acfg._freeze()
    acfg.validate()
    return acfg


def splice_insertion(
    base: ACFG, cfg: ControlFlowGraph, block_name: str, index: int
) -> Optional[Tuple[ACFG, int]]:
    """The ACFG of ``cfg`` derived from ``base`` by one inserted vertex
    per VIVU instance of an edited block, instead of a full rebuild.

    Precondition: ``cfg`` equals the program ``base`` was built from
    except that ``cfg.block(block_name)`` gained one instruction at
    ``index`` (the optimizer's prefetch insertion).  The result is
    equal, field by field, to ``build_acfg(cfg, ...)`` with ``base``'s
    layout parameters.  The list columns are sliced around the
    insertion rids (below the first one, predecessor tuples are shared
    with ``base``); the flat arrays are
    spliced with ``np.insert`` and renumbered with one vectorised
    ``remap`` gather; only the suffix predecessor tuples are rebuilt,
    from ``first_pred``, with the few multi-predecessor vertices
    patched one by one.  The layout is ``base``'s shifted by the
    inserted bytes (:meth:`~repro.program.layout.AddressLayout.with_insertion`);
    the per-rid memory blocks are re-gathered for every vertex from it,
    because the shift follows layout order, which need not be rid order.

    Returns:
        ``(acfg, first_changed)`` — the spliced graph and the lowest rid
        whose vertex differs from ``base``'s (the raw divergence point,
        before any back-edge closure) — or ``None`` when the edited
        block has no instance in ``base`` or the inserted uid already
        occurs in the program (the caller then rebuilds).
    """
    instrs = cfg.block(block_name).instructions
    instr = instrs[index]
    old_len = len(instrs) - 1
    # The new vertex goes right before the instance's old vertex at
    # ``index`` or, when appended, right after its old last vertex.
    before = index < old_len
    anchor_uid = instrs[index + 1].uid if before else instrs[index - 1].uid
    uid = instr.uid
    if uid in base.layout:
        return None  # a reused uid: leave duplicate handling to the build
    anchors = np.flatnonzero(base.uid_arr == anchor_uid)
    m = len(anchors)
    if not m:
        return None
    n_old = len(base)
    # Old rid q_k: the new vertex of instance k takes new rid q_k + k,
    # and old rid r moves up by the number of insertion points <= r.
    qs = anchors if before else anchors + 1
    inserted = qs + np.arange(m)
    old_rids = np.arange(n_old)
    remap = old_rids + np.searchsorted(qs, old_rids, side="right")
    # Where an edge from old rid r starts now: appending after the
    # anchor hands the anchor's out-edges (back edges too) to the new
    # vertex.
    source_of = remap.copy()
    if not before:
        source_of[anchors] = inserted
    moved = inserted + 1 if before else inserted - 1
    first = int(qs[0])
    positions = qs.tolist()
    anchor_list = anchors.tolist()

    # The new instruction takes the anchor's address, or the end of the
    # instruction it is appended to; everything from there moves up.
    at = base.layout.address(anchor_uid)
    if not before:
        at += instrs[index - 1].size
    acfg = ACFG(
        cfg, base.layout.with_insertion(uid, at, instr.size), base.block_size
    )
    acfg.instr = _with_inserted(base.instr, positions, [instr] * m)
    contexts = base.context
    acfg.context = _with_inserted(
        contexts, positions, [contexts[a] for a in anchor_list]
    )
    acfg.block_name = _with_inserted(
        base.block_name, positions, [block_name] * m
    )
    index_column = _with_inserted(base.index_in_block, positions, [index] * m)
    if before:
        # The rest of the edited block instance moves one slot down.
        for new in inserted.tolist():
            for rid in range(new + 1, new + 1 + old_len - index):
                index_column[rid] += 1
    acfg.index_in_block = index_column
    multiplier = base.multiplier
    acfg.multiplier = _with_inserted(
        multiplier, positions, [multiplier[a] for a in anchor_list]
    )

    acfg.uid_arr = np.insert(base.uid_arr, qs, uid)
    acfg.ref_mask = np.insert(base.ref_mask, qs, True)
    old_first = base.first_pred
    first_pred = np.insert(
        np.where(old_first >= 0, source_of[old_first], -1), qs, 0
    )
    in_degree = np.insert(base.in_degree, qs, 1)
    out_degree = np.insert(base.out_degree, qs, 1)
    if before:
        # The new vertex takes the anchor's in-edges and feeds it.
        first_pred[inserted] = first_pred[moved]
        first_pred[moved] = inserted
        in_degree[inserted] = in_degree[moved]
        in_degree[moved] = 1
    else:
        # The new vertex is fed by the anchor and takes its out-edges.
        first_pred[inserted] = moved
        out_degree[inserted] = out_degree[moved]
        out_degree[moved] = 1
    acfg.first_pred = first_pred
    acfg.in_degree = in_degree
    acfg.out_degree = out_degree

    # Prefix tuples are shared; the suffix is single-predecessor but
    # for joins (and the odd multi-entry block), patched below.
    old_pred = base._pred
    pred = old_pred[:first]
    pred += zip(first_pred[first:].tolist())
    remap_list = remap.tolist()
    source_list = source_of.tolist()
    taken = set(anchor_list) if before else ()
    for old in (np.flatnonzero(base.in_degree[first:] != 1) + first).tolist():
        rid = remap_list[old] - (1 if old in taken else 0)
        pred[rid] = tuple([source_list[p] for p in old_pred[old]])
    acfg._pred = pred
    acfg._succ = None
    acfg.back_edges = [
        (source_list[src], remap_list[dst]) for src, dst in base.back_edges
    ]
    acfg._by_key = None
    acfg.source = base.source
    acfg.sink = remap_list[base.sink]
    acfg.ref_rids = np.flatnonzero(acfg.ref_mask).tolist()
    prefetches = remap[np.asarray(base.prefetch_rids, dtype=np.int64)]
    if instr.is_prefetch:
        prefetches = np.sort(np.concatenate([prefetches, inserted]))
    acfg.prefetch_rids = prefetches.tolist()
    acfg._gather_blocks()

    moved_below = np.flatnonzero(
        (base.block_arr[:first] != acfg.block_arr[:first])
        | (base.target_arr[:first] != acfg.target_arr[:first])
    )
    changed = int(moved_below[0]) if len(moved_below) else first
    return acfg, changed


def structural_differences(a: ACFG, b: ACFG) -> List[str]:
    """Names of the fields on which two ACFGs differ (empty: equal).

    Compares the per-rid columns (instruction uid/prefetch role/target,
    context, block name, index in block), the adjacency, back edges,
    multipliers, per-rid memory blocks, the ``(uid, context)`` index,
    the poles, the REF/prefetch rid lists, the flat arrays (values and
    dtypes) and the address layout, one problem name per field — the
    pipeline's differential mode uses it to check a spliced graph
    against a rebuilt one.
    """

    def identity(instr: Optional[Instruction]):
        if instr is None:
            return None
        return (instr.uid, instr.is_prefetch, instr.prefetch_target)

    problems = []
    if list(map(identity, a.instr)) != list(map(identity, b.instr)):
        problems.append("instr")
    if a.successor_table() != b.successor_table():
        problems.append("succ")
    for name in ("context", "block_name", "index_in_block", "_pred",
                 "back_edges", "multiplier", "_ref_block", "_target_block",
                 "source", "sink", "ref_rids", "prefetch_rids"):
        if getattr(a, name) != getattr(b, name):
            problems.append(name.lstrip("_"))
    for name in ("uid_arr", "ref_mask", "block_arr", "target_arr",
                 "first_pred", "in_degree", "out_degree"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
            problems.append(name)
    la, lb = a.layout, b.layout
    if (
        (la.base_address, la.end_address, a.block_size)
        != (lb.base_address, lb.end_address, b.block_size)
        or la.addresses.dtype != lb.addresses.dtype
        or not np.array_equal(la.addresses, lb.addresses)
    ):
        problems.append("layout")
    if a.run_ends() != b.run_ends():
        problems.append("run_ends")
    if a.key_index() != b.key_index():
        problems.append("key_index")
    return problems


def _expand_block(
    acfg: ACFG, block_name: str, ctx: Context, preds: List[int]
) -> List[int]:
    block = acfg.cfg.block(block_name)
    if not block.instructions:
        raise ProgramModelError(f"block {block_name!r} is empty")
    current = preds
    for idx, instr in enumerate(block.instructions):
        rid = acfg._new_vertex(instr, ctx, block_name, idx, current)
        current = [rid]
    return current


def _join(acfg: ACFG, ctx: Context, preds: List[int]) -> List[int]:
    """Insert a JOIN vertex when paths converge (no-op for single pred)."""
    if len(preds) <= 1:
        return list(preds)
    rid = acfg._new_vertex(None, ctx, None, -1, preds)
    return [rid]


def _expand(
    acfg: ACFG, node: StructureNode, ctx: Context, preds: List[int]
) -> List[int]:
    """Recursively expand ``node`` under context ``ctx``.

    ``preds`` are the vertex ids whose out-edges reach the node's first
    vertex; the return value is the list of exit vertex ids.
    """
    cfg = acfg.cfg
    if isinstance(node, BlockNode):
        return _expand_block(acfg, node.block_name, ctx, preds)
    if isinstance(node, SeqNode):
        current = preds
        for item in node.items:
            current = _expand(acfg, item, ctx, current)
        return current
    if isinstance(node, IfElseNode):
        cond_exits = _expand_block(acfg, node.cond_block, ctx, preds)
        then_exits = _expand(acfg, node.then_node, ctx, list(cond_exits))
        if node.else_node is not None:
            else_exits = _expand(acfg, node.else_node, ctx, list(cond_exits))
        else:
            else_exits = list(cond_exits)
        return _join(acfg, ctx, then_exits + else_exits)
    if isinstance(node, SwitchNode):
        sel_exits = _expand_block(acfg, node.selector_block, ctx, preds)
        all_exits: List[int] = []
        for case in node.cases:
            all_exits.extend(_expand(acfg, case, ctx, list(sel_exits)))
        return _join(acfg, ctx, all_exits)
    if isinstance(node, LoopNode):
        info = cfg.loops[node.loop_name]
        first_ctx = enter_loop_first(ctx, node.loop_name)
        first_exits = _expand(acfg, node.body, first_ctx, preds)
        if info.bound < 2:
            return first_exits
        rest_ctx = enter_loop_rest(ctx, node.loop_name)
        # REST entry join merges the first iteration's exit with the
        # (broken) back edge from the REST exit.
        entry_join = acfg._new_vertex(None, rest_ctx, None, -1, first_exits)
        rest_exits = _expand(acfg, node.body, rest_ctx, [entry_join])
        for rexit in rest_exits:
            acfg.back_edges.append((rexit, entry_join))
        # After the loop, control may come from iteration 1 (if the
        # concrete trip count is 1) or from the REST instance.
        return _join(acfg, ctx, first_exits + rest_exits)
    if isinstance(node, CallNode):
        call_exits = _expand_block(acfg, node.call_block, ctx, preds)
        info = cfg.functions[node.function_name]
        body_ctx = enter_call(ctx, node.site_id)
        return _expand(acfg, info.structure, body_ctx, call_exits)
    raise ProgramModelError(f"unknown structure node {type(node).__name__}")
