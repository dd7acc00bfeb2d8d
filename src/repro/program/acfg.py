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
descending-rid iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProgramModelError
from repro.program.cfg import ControlFlowGraph
from repro.program.instructions import Instruction
from repro.program.layout import AddressLayout, MemoryMap
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


class VertexKind(enum.Enum):
    """Role of an ACFG vertex."""

    SOURCE = "source"
    SINK = "sink"
    REF = "ref"
    JOIN = "join"


@dataclass(slots=True)
class RefVertex:
    """One ACFG vertex.

    Attributes:
        rid: Vertex id == topological index.
        kind: Vertex role.
        instr: The referenced instruction (``None`` for non-REF vertices).
        context: VIVU context of the reference.
        block_name: Basic block holding ``instr`` (``None`` for non-REF).
        index_in_block: Position of ``instr`` within its block.
    """

    rid: int
    kind: VertexKind
    instr: Optional[Instruction] = None
    context: Context = TOP
    block_name: Optional[str] = None
    index_in_block: int = -1

    @property
    def is_ref(self) -> bool:
        """True for reference vertices (the only ones that touch memory)."""
        return self.kind is VertexKind.REF

    @property
    def is_prefetch(self) -> bool:
        """True when this vertex references a software prefetch."""
        return self.instr is not None and self.instr.is_prefetch

    def key(self) -> Tuple[int, Context]:
        """Rebuild-stable identity: (instruction uid, context)."""
        if self.instr is None:
            raise ProgramModelError(f"vertex {self.rid} has no instruction key")
        return (self.instr.uid, self.context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is VertexKind.REF:
            return (
                f"<r{self.rid} {self.block_name}[{self.index_in_block}] "
                f"{context_label(self.context)}>"
            )
        return f"<{self.kind.value}{self.rid}>"


class ACFG:
    """The acyclic abstract control-flow graph of one program.

    Build with :func:`build_acfg`.  The graph is immutable once built;
    after the optimizer mutates the CFG it constructs a fresh ACFG.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        layout: AddressLayout,
        memory_map: MemoryMap,
    ):
        self.cfg = cfg
        self.layout = layout
        self.memory_map = memory_map
        self.vertices: List[RefVertex] = []
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        #: Analysis-only loop-closing edges (REST exit -> REST-entry join).
        self.back_edges: List[Tuple[int, int]] = []
        self.source: int = -1
        self.sink: int = -1
        #: (uid, context) -> rid; ``None`` until first use on a spliced
        #: graph (see :meth:`key_index`).
        self._by_key: Optional[Dict[Tuple[int, Context], int]] = {}
        #: Worst-case execution multiplier per vertex (context product).
        self.multiplier: List[int] = []
        #: Per-rid memory block of the vertex's own instruction
        #: (``None`` for non-REF vertices) — hot-path cache for
        #: :meth:`block_of`.
        self._ref_block: List[Optional[int]] = []
        #: Per-rid prefetch target block (``None`` unless a prefetch).
        self._target_block: List[Optional[int]] = []
        #: Per-rid instruction uid (``None`` for non-REF vertices).
        self._uid: List[Optional[int]] = []
        #: Flat per-graph arrays, filled by :meth:`_freeze` (or spliced
        #: by :func:`splice_insertion`) for the hot loops of the guard
        #: and IPET stages, which read them instead of vertex objects:
        #: the REF rids and the prefetch rids (data prefetches
        #: included), both ascending.
        self.ref_rids: List[int] = []
        self.prefetch_rids: List[int] = []
        self._ref_list: Optional[List[RefVertex]] = None
        self._run_end: Optional[List[int]] = None
        #: Context -> execution multiplier; contexts repeat per block
        #: instance, so memoizing saves a context walk per vertex.
        self._mult_cache: Dict[Context, int] = {}

    # ------------------------------------------------------------------
    # construction helpers (used by build_acfg)
    # ------------------------------------------------------------------
    def _new_vertex(
        self,
        kind: VertexKind,
        instr: Optional[Instruction],
        context: Context,
        block_name: Optional[str],
        index_in_block: int,
        preds: Sequence[int],
    ) -> int:
        rid = len(self.vertices)
        vertex = RefVertex(rid, kind, instr, context, block_name, index_in_block)
        self.vertices.append(vertex)
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
            self._uid.append(instr.uid)
            self._ref_block.append(self.memory_map.block_of(instr.uid))
            if instr.is_prefetch and instr.prefetch_target is not None:
                self._target_block.append(
                    self.memory_map.block_of(instr.prefetch_target)
                )
            else:
                self._target_block.append(None)
        else:
            self._uid.append(None)
            self._ref_block.append(None)
            self._target_block.append(None)
        return rid

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vertices)

    def _freeze(self) -> None:
        """Convert adjacency to tuples once construction is complete, so
        the hot accessors below can return them without copying, and
        derive the flat REF/prefetch rid arrays."""
        self._succ = [tuple(s) for s in self._succ]  # type: ignore[misc]
        self._pred = [tuple(p) for p in self._pred]  # type: ignore[misc]
        self.ref_rids = [
            rid for rid, uid in enumerate(self._uid) if uid is not None
        ]
        vertices = self.vertices
        self.prefetch_rids = [
            rid for rid in self.ref_rids if vertices[rid].instr.is_prefetch
        ]

    def successors(self, rid: int) -> Sequence[int]:
        """Forward (DAG) successors of a vertex (do not mutate)."""
        succs = self._succ[rid]
        return succs if isinstance(succs, tuple) else tuple(succs)

    def predecessors(self, rid: int) -> Sequence[int]:
        """Forward (DAG) predecessors of a vertex (do not mutate)."""
        preds = self._pred[rid]
        return preds if isinstance(preds, tuple) else tuple(preds)

    def vertex(self, rid: int) -> RefVertex:
        """Vertex by id."""
        return self.vertices[rid]

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
            uids = self._uid
            vertices = self.vertices
            self._by_key = {
                (uids[rid], vertices[rid].context): rid
                for rid in self.ref_rids
            }
        return self._by_key

    def iter_topological(self) -> Iterator[RefVertex]:
        """Vertices in topological (construction) order."""
        return iter(self.vertices)

    def iter_reverse(self) -> Iterator[RefVertex]:
        """Vertices from sink to source — the order of Algorithm 3."""
        return reversed(self.vertices)

    def ref_vertices(self) -> List[RefVertex]:
        """Only the REF vertices, topological order (cached list)."""
        if self._ref_list is None:
            vertices = self.vertices
            self._ref_list = [vertices[rid] for rid in self.ref_rids]
        return self._ref_list

    def weights(self, t_w: Sequence[float]) -> List[float]:
        """``t_w`` restricted to REF vertices (0 elsewhere): the per-rid
        weight list of the slack DPs, built once per analysis."""
        uids = self._uid
        return [t if uid is not None else 0.0 for t, uid in zip(t_w, uids)]

    def run_ends(self) -> List[int]:
        """Per rid, the end of its straight-line run (cached).

        ``run_ends()[r]`` is the smallest ``e > r`` such that
        ``e == len(self)`` or vertex ``e`` is not fed by exactly its
        predecessor in rid order (``predecessors(e) != (e - 1,)``).
        Between a run head and its end, a forward min-plus sweep is a
        plain running sum, which the slack DPs evaluate at C speed.
        """
        if self._run_end is None:
            pred = self._pred
            n = len(pred)
            run_end = [0] * n
            end = n
            for rid in range(n - 1, -1, -1):
                run_end[rid] = end
                p = pred[rid]
                if len(p) != 1 or p[0] != rid - 1:
                    end = rid
            self._run_end = run_end
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
        if self.source != 0 or self.vertices[self.source].kind is not VertexKind.SOURCE:
            raise ProgramModelError("ACFG source must be vertex 0")
        if (
            self.sink != len(self.vertices) - 1
            or self.vertices[self.sink].kind is not VertexKind.SINK
        ):
            raise ProgramModelError("ACFG sink must be the last vertex")
        for rid, succs in enumerate(self._succ):
            for succ in succs:
                if succ <= rid:
                    raise ProgramModelError(
                        f"edge ({rid}, {succ}) violates topological order"
                    )
        for rid in range(1, len(self.vertices)):
            if not self._pred[rid]:
                raise ProgramModelError(f"vertex {rid} unreachable (no preds)")
        for src, dst in self.back_edges:
            if self.vertices[dst].kind is not VertexKind.JOIN:
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
    layout = AddressLayout(cfg, base_address)
    memory_map = MemoryMap(layout, block_size)
    acfg = ACFG(cfg, layout, memory_map)
    acfg.source = acfg._new_vertex(VertexKind.SOURCE, None, TOP, None, -1, ())

    exits = _expand(acfg, cfg.structure, TOP, [acfg.source])
    acfg.sink = acfg._new_vertex(VertexKind.SINK, None, TOP, None, -1, exits)
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
    layout parameters: vertices below the first insertion rid and their
    predecessor tuples are shared with ``base``, only the suffix is
    renumbered, and the per-rid memory blocks are recomputed for every
    vertex from a fresh layout, because the inserted bytes shift
    addresses in layout order, which need not be rid order.

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
    if uid in base.memory_map._block_of:
        return None  # a reused uid: leave duplicate handling to the build
    old_uid = base._uid
    anchors = [rid for rid in base.ref_rids if old_uid[rid] == anchor_uid]
    if not anchors:
        return None
    old_vertices = base.vertices
    old_pred = base._pred
    old_succ = base._succ
    n_old = len(old_vertices)
    m = len(anchors)
    # Old rid q_k: the new vertex of instance k takes new rid q_k + k.
    qs = anchors if before else [rid + 1 for rid in anchors]
    ends = qs[1:] + [n_old]
    remap = list(range(n_old))
    for k, (q, end) in enumerate(zip(qs, ends)):
        remap[q:end] = range(q + k + 1, end + k + 1)
    inserted = [q + k for k, q in enumerate(qs)]
    first = qs[0]

    layout = AddressLayout(cfg, base.layout.base_address)
    memory_map = MemoryMap(layout, base.memory_map.block_size)
    acfg = ACFG(cfg, layout, memory_map)
    vertices = old_vertices[:first]
    uids = old_uid[:first]
    multiplier = base.multiplier[:first]
    pred = old_pred[:first]
    renumber = remap.__getitem__
    succ = [
        s if not s or s[-1] < first else tuple(map(renumber, s))
        for s in old_succ[:first]
    ]
    shift = old_len - index if before else 0
    for k, (q, end) in enumerate(zip(qs, ends)):
        anchor = anchors[k]
        context = old_vertices[anchor].context
        rid = q + k
        vertices.append(
            RefVertex(rid, VertexKind.REF, instr, context, block_name, index)
        )
        uids.append(uid)
        multiplier.append(base.multiplier[anchor])
        pred.append(None)  # type: ignore[arg-type]  # fixed up below
        succ.append(None)  # type: ignore[arg-type]
        shifted = q + shift
        for r in range(q, end):
            v = old_vertices[r]
            rid += 1
            vertices.append(
                RefVertex(
                    rid,
                    v.kind,
                    v.instr,
                    v.context,
                    v.block_name,
                    v.index_in_block + 1 if r < shifted else v.index_in_block,
                )
            )
        uids.extend(old_uid[q:end])
        multiplier.extend(base.multiplier[q:end])
        # Nearly every adjacency tuple has one entry: map those inline.
        pred.extend([
            (remap[p[0]],) if len(p) == 1 else tuple(map(renumber, p))
            for p in old_pred[q:end]
        ])
        succ.extend([
            (remap[s[0]],) if len(s) == 1 else tuple(map(renumber, s))
            for s in old_succ[q:end]
        ])

    back_edges = [(remap[src], remap[dst]) for src, dst in base.back_edges]
    for anchor, new in zip(anchors, inserted):
        moved = remap[anchor]
        if before:
            # new takes the anchor's in-edges and feeds the anchor.
            pred[new] = pred[moved]
            pred[moved] = (new,)
            succ[new] = (moved,)
            for p in pred[new]:
                succ[p] = tuple([new if x == moved else x for x in succ[p]])
        else:
            # new takes the anchor's out-edges (and its back edges).
            succ[new] = succ[moved]
            succ[moved] = (new,)
            pred[new] = (moved,)
            for s in succ[new]:
                pred[s] = tuple([new if x == moved else x for x in pred[s]])
            back_edges = [
                (new if src == moved else src, dst) for src, dst in back_edges
            ]

    acfg.vertices = vertices
    acfg._pred = pred
    acfg._succ = succ
    acfg._uid = uids
    acfg.multiplier = multiplier
    acfg.back_edges = back_edges
    acfg._by_key = None
    acfg.source = base.source
    acfg.sink = remap[base.sink]
    block_of = memory_map._block_of
    acfg._ref_block = [None if u is None else block_of[u] for u in uids]
    acfg.ref_rids = [rid for rid, u in enumerate(uids) if u is not None]
    prefetch_rids = [remap[rid] for rid in base.prefetch_rids]
    if instr.is_prefetch:
        prefetch_rids = sorted(prefetch_rids + inserted)
    acfg.prefetch_rids = prefetch_rids
    target_block: List[Optional[int]] = [None] * len(vertices)
    for rid in acfg.prefetch_rids:
        target = vertices[rid].instr.prefetch_target
        if target is not None:
            target_block[rid] = block_of[target]
    acfg._target_block = target_block

    changed = first
    if (
        base._ref_block[:first] != acfg._ref_block[:first]
        or base._target_block[:first] != target_block[:first]
    ):
        changed = next(
            rid
            for rid in range(first)
            if base._ref_block[rid] != acfg._ref_block[rid]
            or base._target_block[rid] != target_block[rid]
        )
    return acfg, changed


def structural_differences(a: ACFG, b: ACFG) -> List[str]:
    """Names of the fields on which two ACFGs differ (empty: equal).

    Compares every vertex (rid, kind, instruction uid/prefetch role/
    target, context, block name, index in block), the adjacency, back
    edges, multipliers, per-rid memory blocks, the ``(uid, context)``
    index, the poles and the flat rid arrays — the pipeline's
    differential mode uses it to check a spliced graph against a
    rebuilt one.
    """

    def signature(v: RefVertex):
        instr = v.instr
        ident = (
            None
            if instr is None
            else (instr.uid, instr.is_prefetch, instr.prefetch_target)
        )
        return (v.rid, v.kind, ident, v.context, v.block_name,
                v.index_in_block)

    problems = []
    if [signature(v) for v in a.vertices] != [
        signature(v) for v in b.vertices
    ]:
        problems.append("vertices")
    for name in ("_pred", "_succ", "back_edges", "multiplier", "_uid",
                 "_ref_block", "_target_block", "source", "sink",
                 "ref_rids", "prefetch_rids"):
        if getattr(a, name) != getattr(b, name):
            problems.append(name.lstrip("_"))
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
        rid = acfg._new_vertex(
            VertexKind.REF, instr, ctx, block_name, idx, current
        )
        current = [rid]
    return current


def _join(acfg: ACFG, ctx: Context, preds: List[int]) -> List[int]:
    """Insert a JOIN vertex when paths converge (no-op for single pred)."""
    if len(preds) <= 1:
        return list(preds)
    rid = acfg._new_vertex(VertexKind.JOIN, None, ctx, None, -1, preds)
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
        entry_join = acfg._new_vertex(
            VertexKind.JOIN, None, rest_ctx, None, -1, first_exits
        )
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
