"""Object-graph reference of the Same Displacement Graph.

Production builds the SDG from the flat lowering only
(``SameDisplacementGraph.build`` lowers the function itself when it is
given no lowering).  This module reads the same alignment rule off the
``Instruction`` objects instead: ``tests/test_flat_differential.py``
compares the two, and ``reference_split_subgroups`` in
``tests/test_prescount_sdg_split.py`` cuts by it.
"""

from __future__ import annotations

from repro.analysis.sdg import SameDisplacementGraph
from repro.ir.instruction import Instruction, OpKind
from repro.ir.types import RegClass, VirtualRegister


def needs_alignment(instr: Instruction, regclass: RegClass | None = None) -> bool:
    """The DSA aligns the operands of every vector arithmetic
    instruction (its ALUs read all ports at one displacement)."""
    if instr.kind is not OpKind.ARITH:
        return False
    return len(instr.bankable_reads(regclass)) >= 1 and len(instr.vreg_defs()) >= 1


def reference_sdg(function, regclass: RegClass | None = None) -> SameDisplacementGraph:
    """The SDG of *function*, from an object-graph walk."""
    graph = SameDisplacementGraph(regclass)
    for ordinal, (__, instr) in enumerate(function.instructions()):
        if not needs_alignment(instr, regclass):
            continue
        inputs = [
            r for r in instr.bankable_reads(regclass)
            if isinstance(r, VirtualRegister)
        ]
        outputs = [
            d for d in instr.vreg_defs()
            if d.regclass.bankable and (regclass is None or d.regclass == regclass)
        ]
        graph.add_operands(ordinal, inputs, outputs)
    return graph
