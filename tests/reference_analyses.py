"""Object-graph references of the flat analyses.

Production builds block liveness, live intervals, the Eq. 1/2 conflict
costs, the RCG and the SDG from the flat lowering only
(:class:`~repro.ir.flat.FlatFunction`); each ``build`` lowers the function
itself when it is given no lowering.  This module reads the same facts off
the ``Instruction`` objects instead, with frozensets, its own slot
numbering and ``CFG`` successors: ``tests/test_flat_differential.py`` compares the two on
every workload function, and ``reference_split_subgroups`` in
``tests/test_prescount_sdg_split.py`` cuts by :func:`reference_sdg`.
"""

from __future__ import annotations

from itertools import combinations

from repro.analysis.conflict_graph import ConflictGraph
from repro.analysis.intervals import LiveInterval
from repro.analysis.sdg import SameDisplacementGraph
from repro.ir.cfg import CFG
from repro.ir.instruction import Instruction, OpKind
from repro.ir.loops import LoopInfo
from repro.ir.types import Register, RegClass, VirtualRegister

#: The four per-block sets of block liveness, in ``liveness_masks`` order.
LIVENESS_SETS = ("gen", "kill", "live_in", "live_out")


def raised_liveness(flat) -> dict[str, dict[str, frozenset]]:
    """The lowering's liveness masks raised to label -> register sets."""
    regs = flat.regs
    raised = {}
    for name, masks in zip(LIVENESS_SETS, flat.liveness_masks()):
        sets = {}
        for label, mask in zip(flat.block_labels, masks):
            sets[label] = frozenset(
                regs[rid] for rid in range(mask.bit_length()) if mask >> rid & 1
            )
        raised[name] = sets
    return raised


def reference_liveness(function) -> dict[str, dict[str, frozenset]]:
    """Block liveness by an iterative frozenset solve over the CFG::

        live_out(B) = union of live_in(S) for S in succ(B)
        live_in(B)  = gen(B) | (live_out(B) - kill(B))
    """
    cfg = CFG.build(function)
    gen: dict[str, frozenset] = {}
    kill: dict[str, frozenset] = {}
    for block in function.blocks:
        g: set[Register] = set()
        k: set[Register] = set()
        for instr in block:
            for use in instr.reg_uses():
                if use not in k:
                    g.add(use)
            for defreg in instr.reg_defs():
                k.add(defreg)
        gen[block.label] = frozenset(g)
        kill[block.label] = frozenset(k)
    labels = [b.label for b in function.blocks]
    live_in = {label: frozenset() for label in labels}
    live_out = {label: frozenset() for label in labels}
    changed = True
    while changed:
        changed = False
        for label in reversed(labels):
            out: set[Register] = set()
            for succ in cfg.succs[label]:
                out |= live_in[succ]
            new_out = frozenset(out)
            new_in = frozenset(gen[label] | (new_out - kill[label]))
            if new_out != live_out[label] or new_in != live_in[label]:
                live_out[label] = new_out
                live_in[label] = new_in
                changed = True
    return {"gen": gen, "kill": kill, "live_in": live_in, "live_out": live_out}


def reference_intervals(function) -> dict[Register, LiveInterval]:
    """Live intervals by a backward walk over each block, seeded with its
    frozenset live-out and inserting segments one at a time.  Slots count
    instructions in layout order: the n-th reads at ``2*n`` and writes at
    ``2*n + 1``."""
    live_out = reference_liveness(function)["live_out"]
    intervals: dict[Register, LiveInterval] = {}

    def interval(reg: Register) -> LiveInterval:
        if reg not in intervals:
            intervals[reg] = LiveInterval(reg)
        return intervals[reg]

    block_end = 0
    for block in function.blocks:
        block_start = block_end
        block_end = block_start + 2 * len(block.instructions)
        if block_start == block_end:
            continue
        live_end = {reg: block_end for reg in live_out[block.label]}
        read = block_end
        for instr in reversed(block.instructions):
            read -= 2
            write = read + 1
            for reg in instr.reg_defs():
                iv = interval(reg)
                iv.def_slots.append(write)
                end = live_end.pop(reg, None)
                iv.add_segment(write, write + 1 if end is None else end)
            for reg in instr.reg_uses():
                interval(reg).use_slots.append(read)
                live_end.setdefault(reg, read + 1)
        for reg, end in live_end.items():
            interval(reg).add_segment(block_start, end)
    for iv in intervals.values():
        iv.use_slots.sort()
        iv.def_slots.sort()
    return intervals


def reference_costs(
    function,
    regclass: RegClass | None = None,
    conflict_relevant_only: bool = True,
) -> tuple[dict[int, float], dict[Register, float], dict[Register, float]]:
    """Eq. 1/2 by an instruction walk: ``id(instr) -> Cost_I``, then
    ``Cost_R`` and the all-access cost per register, in first-touch
    order."""
    loop_info = LoopInfo.build(function)
    instr_cost: dict[int, float] = {}
    reg_cost: dict[Register, float] = {}
    access_cost: dict[Register, float] = {}
    for block in function.blocks:
        freq = loop_info.block_frequency(block.label)
        for instr in block:
            instr_cost[id(instr)] = freq
            for reg in instr.regs():
                access_cost[reg] = access_cost.get(reg, 0.0) + freq
            if conflict_relevant_only:
                if not instr.is_conflict_relevant(regclass):
                    continue
                regs = instr.bankable_reads(regclass)
            else:
                regs = tuple(instr.regs())
            for reg in regs:
                reg_cost[reg] = reg_cost.get(reg, 0.0) + freq
    return instr_cost, reg_cost, access_cost


def reference_rcg(function, regclass: RegClass | None = None) -> ConflictGraph:
    """The RCG of *function*, from an object-graph walk."""
    instr_cost, reg_cost, __ = reference_costs(function, regclass)
    graph = ConflictGraph(regclass)
    for __, instr in function.instructions():
        if not instr.is_conflict_relevant(regclass):
            continue
        reads = [
            r for r in instr.bankable_reads(regclass)
            if isinstance(r, VirtualRegister)
        ]
        if len(reads) < 2:
            continue
        cost = instr_cost[id(instr)]
        for reg in reads:
            graph.adjacency.setdefault(reg, set())
            graph.node_cost[reg] = reg_cost.get(reg, 0.0)
        for a, b in combinations(reads, 2):
            key = frozenset((a, b))
            graph.adjacency[a].add(b)
            graph.adjacency[b].add(a)
            graph.edge_cost[key] = graph.edge_cost.get(key, 0.0) + cost
    return graph


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
