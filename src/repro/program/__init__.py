"""Program model: instructions, CFGs, structure trees, layout, ACFG/VIVU.

This package is the substrate every analysis consumes.  Typical use::

    from repro.program import ProgramBuilder, build_acfg

    b = ProgramBuilder("demo")
    b.code(8)
    with b.loop(bound=16):
        b.code(12)
    cfg = b.build()
    acfg = build_acfg(cfg, block_size=16)
"""

from repro.program.acfg import ACFG, build_acfg
from repro.program.builder import ProgramBuilder, entry_block_of, exit_blocks_of
from repro.program.cfg import (
    BasicBlock,
    BranchProfile,
    ControlFlowGraph,
    FunctionInfo,
    LoopInfo,
)
from repro.program.instructions import (
    INSTRUCTION_SIZE,
    Instruction,
    InstructionFactory,
    InstrKind,
)
from repro.program.layout import AddressLayout
from repro.program.structure import (
    BlockNode,
    CallNode,
    IfElseNode,
    LoopNode,
    SeqNode,
    StructureNode,
    SwitchNode,
    count_nodes,
    walk,
)
from repro.program.vivu import (
    CALL,
    FIRST,
    REST,
    TOP,
    Context,
    ContextElement,
    context_depth,
    context_label,
    enter_call,
    enter_loop_first,
    enter_loop_rest,
    execution_multiplier,
)

__all__ = [
    "ACFG",
    "AddressLayout",
    "BasicBlock",
    "BlockNode",
    "BranchProfile",
    "CALL",
    "CallNode",
    "Context",
    "ContextElement",
    "ControlFlowGraph",
    "FIRST",
    "FunctionInfo",
    "IfElseNode",
    "INSTRUCTION_SIZE",
    "Instruction",
    "InstructionFactory",
    "InstrKind",
    "LoopInfo",
    "LoopNode",
    "ProgramBuilder",
    "REST",
    "SeqNode",
    "StructureNode",
    "SwitchNode",
    "TOP",
    "build_acfg",
    "context_depth",
    "context_label",
    "count_nodes",
    "enter_call",
    "enter_loop_first",
    "enter_loop_rest",
    "entry_block_of",
    "execution_multiplier",
    "exit_blocks_of",
    "walk",
]
