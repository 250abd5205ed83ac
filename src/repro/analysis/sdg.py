"""Same Displacement Graph (SDG) for the DSA's subgroup alignment (§III-C).

``G_SDG = (V, A)``: vertices are registers that require subgroup
alignment; a directed edge runs from each input operand to each output
operand of an aligned instruction — connected registers must receive the
same subgroup displacement.

The (weakly) connected components of the SDG are the *subgroups* tracked
by Algorithm 2; components that grow large cause unbalanced subgroup
assignment and are cut by the splitting heuristic of Figs. 8/9, which
targets "centered" vertices: high out-degree (input sharing, one value
feeding many operations) or high in-degree (output sharing, a reduction
accumulator written by many operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instruction import Instruction, OpKind
from ..ir.types import RegClass, VirtualRegister


@dataclass
class SameDisplacementGraph:
    """Directed alignment graph over virtual registers."""

    regclass: RegClass | None
    out_edges: dict[VirtualRegister, set[VirtualRegister]] = field(default_factory=dict)
    in_edges: dict[VirtualRegister, set[VirtualRegister]] = field(default_factory=dict)
    #: (src, dst) -> instructions inducing the edge.
    edge_instrs: dict[tuple[VirtualRegister, VirtualRegister], list[Instruction]] = field(
        default_factory=dict
    )

    @classmethod
    def build(
        cls,
        function: Function,
        regclass: RegClass | None = None,
        flat=None,
    ) -> "SameDisplacementGraph":
        graph = cls(regclass)
        if flat is not None:
            graph._build_flat(flat)
            return graph
        for _, instr in function.instructions():
            if not cls.needs_alignment(instr, regclass):
                continue
            inputs = [
                r for r in instr.bankable_reads(regclass)
                if isinstance(r, VirtualRegister)
            ]
            outputs = [
                d for d in instr.vreg_defs()
                if d.regclass.bankable
                and (regclass is None or d.regclass == regclass)
            ]
            for dst in outputs:
                graph._add_node(dst)
            for src in inputs:
                graph._add_node(src)
                for dst in outputs:
                    graph.add_edge(src, dst, instr)
        return graph

    def _build_flat(self, flat) -> None:
        """Flat-array scan: same nodes/edges in the same insertion order,
        without re-deriving operand tuples per instruction."""
        regs = flat.regs
        reg_virtual = flat.reg_virtual
        regclass = self.regclass
        for i in range(len(flat.instrs)):
            aligned = self.flat_alignment(flat, i, regclass)
            if aligned is None:
                continue
            bank, vdefs = aligned
            inputs = [rid for rid in bank if reg_virtual[rid]]
            outputs = [
                rid for rid in vdefs
                if regs[rid].regclass.bankable
                and (regclass is None or regs[rid].regclass == regclass)
            ]
            instr = flat.instrs[i]
            for dst in outputs:
                self._add_node(regs[dst])
            for src in inputs:
                self._add_node(regs[src])
                for dst in outputs:
                    self.add_edge(regs[src], regs[dst], instr)

    @staticmethod
    def needs_alignment(instr: Instruction, regclass: RegClass | None = None) -> bool:
        """The DSA aligns the operands of every vector arithmetic
        instruction (its ALUs read all ports at one displacement)."""
        if instr.kind is not OpKind.ARITH:
            return False
        return len(instr.bankable_reads(regclass)) >= 1 and len(instr.vreg_defs()) >= 1

    @staticmethod
    def flat_alignment(flat, ordinal: int, regclass: RegClass | None = None):
        """:meth:`needs_alignment` for one lowered instruction: its
        distinct bankable read rids and its virtual def rids, or ``None``
        when it needs no alignment."""
        if flat.kinds[ordinal] is not OpKind.ARITH:
            return None
        start, end = flat.def_start[ordinal], flat.def_start[ordinal + 1]
        vdefs = [rid for rid in flat.def_ids[start:end] if flat.reg_virtual[rid]]
        if not vdefs:
            return None
        bank = flat.bank_reads(ordinal, regclass)
        if not bank:
            return None
        return bank, vdefs

    # ------------------------------------------------------------------
    def _add_node(self, reg: VirtualRegister) -> None:
        self.out_edges.setdefault(reg, set())
        self.in_edges.setdefault(reg, set())

    def add_edge(self, src: VirtualRegister, dst: VirtualRegister, instr: Instruction | None = None) -> None:
        if src == dst:
            return  # accumulator updates (a = op a, b) impose no new constraint
        self._add_node(src)
        self._add_node(dst)
        self.out_edges[src].add(dst)
        self.in_edges[dst].add(src)
        if instr is not None:
            self.edge_instrs.setdefault((src, dst), []).append(instr)

    # ------------------------------------------------------------------
    def nodes(self) -> list[VirtualRegister]:
        return list(self.out_edges)

    def out_degree(self, reg: VirtualRegister) -> int:
        return len(self.out_edges.get(reg, ()))

    def in_degree(self, reg: VirtualRegister) -> int:
        return len(self.in_edges.get(reg, ()))

    def neighbors(self, reg: VirtualRegister) -> set[VirtualRegister]:
        """Undirected neighborhood (alignment is symmetric)."""
        return self.out_edges.get(reg, set()) | self.in_edges.get(reg, set())

    def components(self) -> list[set[VirtualRegister]]:
        """Weakly connected components: the alignment subgroups."""
        seen: set[VirtualRegister] = set()
        result = []
        for root in self.out_edges:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            seen.add(root)
            while stack:
                node = stack.pop()
                for nb in self.neighbors(node):
                    if nb not in seen:
                        seen.add(nb)
                        comp.add(nb)
                        stack.append(nb)
            result.append(comp)
        return result

    def component_of(self, reg: VirtualRegister) -> set[VirtualRegister]:
        """The subgroup containing *reg* (singleton if isolated)."""
        if reg not in self.out_edges:
            return {reg}
        for comp in self.components():
            if reg in comp:
                return comp
        raise AssertionError("unreachable: node missing from its own components")

    # ------------------------------------------------------------------
    # Splitting support (Figs. 8 / 9)
    # ------------------------------------------------------------------
    def sharing_centers(
        self, component: set[VirtualRegister], threshold: int
    ) -> list[tuple[VirtualRegister, str, int]]:
        """Centered vertices of *component* worth splitting.

        Returns (register, kind, fanout) triples where kind is
        ``"input_sharing"`` (high out-degree) or ``"output_sharing"``
        (high in-degree), sorted by decreasing fanout with ties broken by
        register id.  *component* is a set (hash-ordered), so both the
        iteration and the sort tie-break must be pinned to register ids —
        otherwise the split pass picks different equal-fanout centers
        under different ``PYTHONHASHSEED`` values and the allocated
        output drifts run to run.
        """
        centers = []
        for reg in sorted(component, key=lambda r: r.vid):
            out_deg = self.out_degree(reg)
            in_deg = self.in_degree(reg)
            if out_deg >= threshold:
                centers.append((reg, "input_sharing", out_deg))
            if in_deg >= threshold:
                centers.append((reg, "output_sharing", in_deg))
        centers.sort(key=lambda c: (-c[2], c[0].vid, c[1]))
        return centers

    def __len__(self) -> int:
        return len(self.out_edges)

    def __contains__(self, reg: VirtualRegister) -> bool:
        return reg in self.out_edges
