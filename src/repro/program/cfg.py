"""Control-flow graph of basic blocks (Definition 3 of the paper).

A :class:`ControlFlowGraph` is the static program model every other
subsystem consumes:

* :mod:`repro.program.layout` assigns byte addresses to its instructions,
* :mod:`repro.program.acfg` expands it (via VIVU contexts) into the
  abstract control-flow graph the analyses and the optimizer run on,
* :mod:`repro.sim.executor` interprets its structure tree to produce
  concrete fetch traces.

CFGs in this library are *structured*: they are produced by
:class:`repro.program.builder.ProgramBuilder` together with a structure
tree (:mod:`repro.program.structure`), mirroring the compiler setting of
the paper where the CFG comes out of GCC for the structured Mälardalen
sources.  The graph view (blocks/edges/loops) and the tree view always
describe the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import LoopBoundError, ProgramModelError
from repro.program.instructions import (
    Instruction,
    InstructionFactory,
    InstrKind,
)


@dataclass
class BranchProfile:
    """Average-case behaviour of a two-way conditional branch.

    Used only by the concrete executor (ACET/energy simulation); WCET
    analysis explores both arms and keeps the worst.

    Attributes:
        taken_prob: Probability that the *then* arm is taken on a given
            execution.  Sampled with the executor's seeded RNG, so runs
            are reproducible.
        pattern: Optional deterministic cyclic pattern of outcomes
            (``True`` = then-arm).  When present it overrides
            ``taken_prob``.
    """

    taken_prob: float = 0.5
    pattern: Optional[Tuple[bool, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.taken_prob <= 1.0:
            raise ProgramModelError(
                f"taken_prob must be in [0, 1], got {self.taken_prob}"
            )
        if self.pattern is not None and len(self.pattern) == 0:
            raise ProgramModelError("branch pattern must be non-empty")


class BasicBlock:
    """A maximal straight-line sequence of instructions.

    The instruction list is mutable on purpose: the optimizer inserts
    ``PREFETCH`` instructions into it (and only that), after which the
    owning CFG's layout must be recomputed.
    """

    def __init__(self, name: str, instructions: Optional[List[Instruction]] = None):
        self.name = name
        self.instructions: List[Instruction] = list(instructions or [])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<bb {self.name} [{len(self.instructions)} instrs]>"

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def byte_size(self) -> int:
        """Total byte size of the block's instructions."""
        return sum(i.size for i in self.instructions)

    def insert(self, index: int, instr: Instruction) -> None:
        """Insert ``instr`` before position ``index``.

        Only prefetch instructions may be inserted after construction;
        anything else would break prefetch equivalence (Definition 5).
        """
        if not instr.is_prefetch:
            raise ProgramModelError(
                "only PREFETCH instructions may be inserted into a built block"
            )
        if not 0 <= index <= len(self.instructions):
            raise ProgramModelError(
                f"insertion index {index} out of range for block {self.name!r} "
                f"of length {len(self.instructions)}"
            )
        self.instructions.insert(index, instr)

    def strip_prefetches(self) -> "BasicBlock":
        """Return a copy of this block with all prefetches removed."""
        return BasicBlock(
            self.name, [i for i in self.instructions if not i.is_prefetch]
        )

    def index_of(self, instr: Instruction) -> int:
        """Position of ``instr`` in this block (by uid identity)."""
        for idx, existing in enumerate(self.instructions):
            if existing.uid == instr.uid:
                return idx
        raise ProgramModelError(
            f"instruction uid {instr.uid} not found in block {self.name!r}"
        )


@dataclass
class LoopInfo:
    """A structured (bottom-tested) loop.

    The model follows a do-while shape: the body executes at least once
    and at most ``bound`` times per entry to the loop.  ``bound`` is the
    WCET loop bound; ``sim_iterations`` is the concrete iteration count
    the executor uses (the average-case behaviour), which must not exceed
    the bound.

    Attributes:
        name: Unique loop identifier within the program.
        header: Name of the first block of the body (back-edge target).
        latch: Name of the last block of the body (back-edge source).
        blocks: Names of all blocks belonging to the body (including any
            nested loops' blocks).
        bound: Maximum body executions per loop entry (>= 1).
        sim_iterations: Concrete body executions per entry used by the
            executor; defaults to ``bound``.
        parent: Name of the innermost enclosing loop, or ``None``.
    """

    name: str
    header: str
    latch: str
    blocks: Tuple[str, ...]
    bound: int
    sim_iterations: Optional[int] = None
    parent: Optional[str] = None

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise LoopBoundError(
                f"loop {self.name!r}: bound must be >= 1, got {self.bound}"
            )
        if self.sim_iterations is None:
            self.sim_iterations = self.bound
        if not 1 <= self.sim_iterations <= self.bound:
            raise LoopBoundError(
                f"loop {self.name!r}: sim_iterations ({self.sim_iterations}) "
                f"must lie in [1, bound={self.bound}]"
            )


@dataclass
class FunctionInfo:
    """A function body reachable through :class:`~repro.program.structure.CallNode`.

    Attributes:
        name: Function name (unique within the program).
        structure: Structure tree of the body (excludes caller blocks).
        entry_block: Name of the first body block.
        exit_blocks: Names of the blocks control leaves the function from.
        blocks: All block names belonging to the body, in layout order.
    """

    name: str
    structure: "object"
    entry_block: str
    exit_blocks: Tuple[str, ...]
    blocks: Tuple[str, ...]


class ControlFlowGraph:
    """Directed graph of basic blocks with explicit loop structure.

    Blocks are kept in *layout order* — the order in which
    :mod:`repro.program.layout` places them in the address space, which is
    the order the builder emitted them.
    """

    def __init__(self, name: str, factory: Optional[InstructionFactory] = None):
        self.name = name
        self.factory = factory or InstructionFactory()
        self.blocks: List[BasicBlock] = []
        self._by_name: Dict[str, BasicBlock] = {}
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}
        self.loops: Dict[str, LoopInfo] = {}
        self.branch_profiles: Dict[str, BranchProfile] = {}
        #: Root of the structure tree; set by the builder.
        self.structure = None
        #: Functions callable from the tree: name -> FunctionInfo.
        self.functions: Dict[str, "FunctionInfo"] = {}
        #: Data segment layout (``None`` for pure-code programs); set by
        #: the builder when the program declares data regions.
        self.data_layout = None
        self.entry: Optional[BasicBlock] = None
        self.exit: Optional[BasicBlock] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Append ``block`` in layout order."""
        if block.name in self._by_name:
            raise ProgramModelError(f"duplicate block name {block.name!r}")
        self.blocks.append(block)
        self._by_name[block.name] = block
        self._succ.setdefault(block.name, [])
        self._pred.setdefault(block.name, [])
        return block

    def add_edge(self, src: str, dst: str) -> None:
        """Add a control-flow edge ``src -> dst`` (names)."""
        if src not in self._by_name or dst not in self._by_name:
            raise ProgramModelError(f"edge ({src!r}, {dst!r}) references unknown block")
        if dst in self._succ[src]:
            raise ProgramModelError(f"duplicate edge ({src!r}, {dst!r})")
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    def add_loop(self, info: LoopInfo) -> None:
        """Register a loop; nested loops must be registered after parents."""
        if info.name in self.loops:
            raise ProgramModelError(f"duplicate loop name {info.name!r}")
        if info.parent is not None and info.parent not in self.loops:
            raise ProgramModelError(
                f"loop {info.name!r}: parent {info.parent!r} not registered"
            )
        self.loops[info.name] = info

    def set_branch_profile(self, block_name: str, profile: BranchProfile) -> None:
        """Attach average-case branch behaviour to a conditional block."""
        if block_name not in self._by_name:
            raise ProgramModelError(f"unknown block {block_name!r}")
        self.branch_profiles[block_name] = profile

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def block(self, name: str) -> BasicBlock:
        """Look up a block by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ProgramModelError(f"unknown block {name!r}") from None

    def successors(self, name: str) -> Sequence[str]:
        """Successor block names of ``name``."""
        return tuple(self._succ[name])

    def predecessors(self, name: str) -> Sequence[str]:
        """Predecessor block names of ``name``."""
        return tuple(self._pred[name])

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Iterate over all edges as ``(src, dst)`` name pairs."""
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over all instructions in layout order."""
        for block in self.blocks:
            yield from block.instructions

    @property
    def instruction_count(self) -> int:
        """Number of static instructions (prefetches included)."""
        return sum(len(b) for b in self.blocks)

    @property
    def prefetch_count(self) -> int:
        """Number of static prefetch instructions."""
        return sum(1 for i in self.instructions() if i.is_prefetch)

    def loops_containing(self, block_name: str) -> List[LoopInfo]:
        """Loops enclosing ``block_name``, outermost first."""
        chain = [lp for lp in self.loops.values() if block_name in lp.blocks]
        chain.sort(key=self._loop_depth)
        return chain

    def _loop_depth(self, loop: LoopInfo) -> int:
        depth = 0
        cur: Optional[str] = loop.parent
        while cur is not None:
            depth += 1
            cur = self.loops[cur].parent
        return depth

    def find_instruction(self, uid: int) -> Tuple[BasicBlock, int]:
        """Locate an instruction by uid; returns ``(block, index)``."""
        for block in self.blocks:
            for idx, instr in enumerate(block.instructions):
                if instr.uid == uid:
                    return block, idx
        raise ProgramModelError(f"instruction uid {uid} not found in CFG")

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def insert_prefetch(
        self, block_name: str, index: int, target_uid: int
    ) -> Instruction:
        """Insert a prefetch instruction.

        Args:
            block_name: Block receiving the prefetch.
            index: Position within the block (before current position
                ``index``).
            target_uid: uid of the instruction whose memory block the
                prefetch loads (resolved to a block id at analysis time,
                after relayout).

        Returns:
            The freshly created prefetch instruction.
        """
        prefetch = self.factory.prefetch(target_uid)
        self.block(block_name).insert(index, prefetch)
        return prefetch

    def insert_data_prefetch(
        self, block_name: str, index: int, access: "object"
    ) -> Instruction:
        """Insert a software *data* prefetch instruction.

        Args:
            block_name: Block receiving the prefetch.
            index: Position within the block.
            access: A :class:`repro.data.model.DataAccess` with kind
                ``PREFETCH`` describing the block to load into the data
                cache.

        Returns:
            The freshly created prefetch instruction (its
            ``prefetch_target`` is ``None``; the data access carries the
            target).
        """
        prefetch = self.factory.make(
            InstrKind.PREFETCH, label="dpf", data_access=access
        )
        self.block(block_name).insert(index, prefetch)
        return prefetch

    def remove_prefetch(self, prefetch_uid: int) -> None:
        """Remove a previously inserted prefetch (used to undo candidates)."""
        block, idx = self.find_instruction(prefetch_uid)
        if not block.instructions[idx].is_prefetch:
            raise ProgramModelError(
                f"instruction uid {prefetch_uid} is not a prefetch"
            )
        del block.instructions[idx]

    def strip_prefetches(self) -> None:
        """Remove every prefetch instruction in place."""
        for block in self.blocks:
            kept = [i for i in block.instructions if not i.is_prefetch]
            if len(kept) != len(block.instructions):
                block.instructions = kept

    def clone(self) -> "ControlFlowGraph":
        """Deep copy of the whole program.

        The optimizer works on a clone by default so the original
        (prefetch-free) program stays available for the paired
        comparisons every experiment needs.
        """
        import copy

        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`ProgramModelError`.

        Ensures entry/exit exist, every edge endpoint exists, conditional
        blocks end in a branch instruction, loop records are consistent,
        and instruction uids are unique.
        """
        if self.entry is None or self.exit is None:
            raise ProgramModelError(f"CFG {self.name!r}: entry/exit not set")
        seen_uids = set()
        for instr in self.instructions():
            if instr.uid in seen_uids:
                raise ProgramModelError(
                    f"CFG {self.name!r}: duplicate instruction uid {instr.uid}"
                )
            seen_uids.add(instr.uid)
        for block in self.blocks:
            succs = self._succ[block.name]
            if len(succs) > 1:
                if not block.instructions:
                    raise ProgramModelError(
                        f"block {block.name!r} has {len(succs)} successors "
                        "but no instructions"
                    )
                last = block.instructions[-1]
                if last.kind not in (
                    InstrKind.BRANCH,
                    InstrKind.JUMP,
                    InstrKind.RETURN,  # a function returning to many sites
                ):
                    raise ProgramModelError(
                        f"block {block.name!r} has multiple successors but "
                        f"does not end in a branch (ends in {last.kind})"
                    )
        for loop in self.loops.values():
            for name in (loop.header, loop.latch):
                if name not in self._by_name:
                    raise ProgramModelError(
                        f"loop {loop.name!r} references unknown block {name!r}"
                    )
            for name in loop.blocks:
                if name not in self._by_name:
                    raise ProgramModelError(
                        f"loop {loop.name!r} contains unknown block {name!r}"
                    )
            if loop.header not in loop.blocks or loop.latch not in loop.blocks:
                raise ProgramModelError(
                    f"loop {loop.name!r}: header/latch must belong to the loop"
                )
            if loop.parent is not None:
                parent = self.loops[loop.parent]
                missing = set(loop.blocks) - set(parent.blocks)
                if missing:
                    raise ProgramModelError(
                        f"loop {loop.name!r}: blocks {sorted(missing)} not in "
                        f"parent loop {parent.name!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CFG {self.name!r}: {len(self.blocks)} blocks, "
            f"{self.instruction_count} instrs, {len(self.loops)} loops>"
        )
