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

The graph counts each edge's inducing instructions and records where each
vertex first appears, so the splitting pass can patch it at every cut
(:meth:`SameDisplacementGraph.remove_operands`,
:meth:`~SameDisplacementGraph.add_operands`,
:meth:`~SameDisplacementGraph.reseat`) instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.flat import FlatFunction
from ..ir.function import Function
from ..ir.instruction import OpKind
from ..ir.types import RegClass, VirtualRegister


@dataclass
class SameDisplacementGraph:
    """Directed alignment graph over virtual registers."""

    regclass: RegClass | None
    out_edges: dict[VirtualRegister, set[VirtualRegister]] = field(default_factory=dict)
    in_edges: dict[VirtualRegister, set[VirtualRegister]] = field(default_factory=dict)
    #: (src, dst) -> number of aligned instructions inducing the edge.
    edge_count: dict[tuple[VirtualRegister, VirtualRegister], int] = field(
        default_factory=dict
    )
    #: Vertex -> ``(ordinal, slot)`` of its first aligned operand: the
    #: instruction's index in the lowering and the operand's position
    #: among that instruction's outputs, then inputs.  A build meets the
    #: vertices in this order; :meth:`components` walks them in it.
    first: dict[VirtualRegister, tuple[int, int]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        function: Function,
        regclass: RegClass | None = None,
        flat: FlatFunction | None = None,
    ) -> "SameDisplacementGraph":
        if flat is None:
            flat = FlatFunction(function)
        graph = cls(regclass)
        for ordinal in range(len(flat.instrs)):
            operands = graph.operands(flat, ordinal)
            if operands is not None:
                graph.add_operands(ordinal, *operands)
        return graph

    @staticmethod
    def flat_alignment(flat, ordinal: int, regclass: RegClass | None = None):
        """Whether one lowered instruction needs alignment: the DSA aligns
        the operands of every vector arithmetic instruction (its ALUs read
        all ports at one displacement) that reads a bankable register and
        writes a virtual one.  Returns its distinct bankable read rids and
        its virtual def rids, or ``None``."""
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

    def operands(self, flat, ordinal: int):
        """The aligned ``(inputs, outputs)`` registers of one lowered
        instruction under this graph's register class, or ``None`` when it
        needs no alignment."""
        regclass = self.regclass
        aligned = self.flat_alignment(flat, ordinal, regclass)
        if aligned is None:
            return None
        bank, vdefs = aligned
        regs = flat.regs
        inputs = [regs[rid] for rid in bank if flat.reg_virtual[rid]]
        outputs = [
            regs[rid] for rid in vdefs
            if regs[rid].regclass.bankable
            and (regclass is None or regs[rid].regclass == regclass)
        ]
        return inputs, outputs

    # ------------------------------------------------------------------
    def add_operands(
        self,
        ordinal: int,
        inputs: list[VirtualRegister],
        outputs: list[VirtualRegister],
    ) -> None:
        """Count in the aligned instruction at *ordinal*: its operands
        become vertices, and each input gains an edge to each output."""
        first = self.first
        for slot, reg in enumerate(outputs + inputs):
            if reg not in first:
                first[reg] = (ordinal, slot)
                self.out_edges[reg] = set()
                self.in_edges[reg] = set()
        count = self.edge_count
        for src in inputs:
            for dst in outputs:
                if src == dst:
                    continue  # accumulator updates (a = op a, b) impose no new constraint
                key = (src, dst)
                n = count.get(key, 0)
                count[key] = n + 1
                if not n:
                    self.out_edges[src].add(dst)
                    self.in_edges[dst].add(src)

    def remove_operands(
        self, inputs: list[VirtualRegister], outputs: list[VirtualRegister]
    ) -> None:
        """Count out the edges :meth:`add_operands` counted in for these
        operands.  Vertices stay: :meth:`reseat` moves or drops them."""
        count = self.edge_count
        for src in inputs:
            for dst in outputs:
                if src == dst:
                    continue
                key = (src, dst)
                n = count[key] - 1
                if n:
                    count[key] = n
                else:
                    del count[key]
                    self.out_edges[src].discard(dst)
                    self.in_edges[dst].discard(src)

    def reseat(self, reg: VirtualRegister, first: tuple[int, int] | None) -> None:
        """*reg* now first appears at *first*; ``None`` when no aligned
        operand names it any more, which drops its (edgeless) vertex."""
        if first is not None:
            self.first[reg] = first
            return
        assert not self.out_edges[reg] and not self.in_edges[reg], reg
        del self.first[reg], self.out_edges[reg], self.in_edges[reg]

    # ------------------------------------------------------------------
    def out_degree(self, reg: VirtualRegister) -> int:
        return len(self.out_edges.get(reg, ()))

    def in_degree(self, reg: VirtualRegister) -> int:
        return len(self.in_edges.get(reg, ()))

    def neighbors(self, reg: VirtualRegister) -> set[VirtualRegister]:
        """Undirected neighborhood (alignment is symmetric)."""
        return self.out_edges.get(reg, set()) | self.in_edges.get(reg, set())

    def components(self) -> list[set[VirtualRegister]]:
        """Weakly connected components: the alignment subgroups, in the
        order of their first-appearing vertex."""
        seen: set[VirtualRegister] = set()
        result = []
        for root in sorted(self.first, key=self.first.__getitem__):
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
