"""Register Conflict Graph (RCG) — the structure PresCount colors.

``G_RCG = (V, E)``: vertices are the virtual registers appearing as
bankable read operands of *conflict-relevant* instructions; an edge joins
two registers that are read together by at least one instruction (§II-B).
Assigning banks is coloring this graph with ``num_banks`` colors: a
monochromatic edge is a static bank conflict.

Edges carry the summed ``Cost_I`` of the instructions that induce them, so
the residual (uncolorable) conflict cost can be evaluated exactly, and
nodes carry ``Cost_R`` (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.flat import FlatFunction
from ..ir.function import Function
from ..ir.instruction import OpKind
from ..ir.types import RegClass, VirtualRegister
from .cost import ConflictCostModel


@dataclass
class ConflictGraph:
    """The RCG of one function (virtual registers only).

    Attributes:
        adjacency: vreg -> set of conflicting vregs.
        edge_cost: frozenset({a, b}) -> summed Cost_I of the inducing
            instructions.
        node_cost: vreg -> Cost_R (Eq. 2).
    """

    regclass: RegClass | None
    adjacency: dict[VirtualRegister, set[VirtualRegister]] = field(default_factory=dict)
    edge_cost: dict[frozenset, float] = field(default_factory=dict)
    node_cost: dict[VirtualRegister, float] = field(default_factory=dict)
    #: *Soft* edges (e.g. VLIW bundle edges): they never constrain the
    #: color choice, they only bias tie-breaking — a monochromatic soft
    #: edge costs issue bandwidth, not a register-file stall.
    soft_adjacency: dict[VirtualRegister, set[VirtualRegister]] = field(default_factory=dict)
    soft_edge_cost: dict[frozenset, float] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        function: Function,
        cost_model: ConflictCostModel | None = None,
        regclass: RegClass | None = None,
        flat: FlatFunction | None = None,
    ) -> "ConflictGraph":
        """Build the RCG over *flat* (lowered here when not given).

        Adjacency and edge costs accumulate over interned ids (one tuple
        hash per edge instead of a frozen-dataclass hash per operand) and
        are raised to the register-keyed dicts once, in the instruction
        walk's first-touch order.  ``Cost_I`` is read by ordinal from
        *cost_model*, which must cost the same lowering (one is built
        over *flat* when not given).
        """
        if flat is None:
            flat = FlatFunction(function)
        if cost_model is None:
            cost_model = ConflictCostModel.build(
                function, regclass=regclass, flat=flat
            )
        graph = cls(regclass)
        instr_cost = cost_model.instr_cost
        kinds = flat.kinds
        reg_virtual = flat.reg_virtual
        arith = OpKind.ARITH
        adj: dict[int, set[int]] = {}
        edge_cost: dict[tuple[int, int], float] = {}
        node_order: list[int] = []
        for i in range(len(flat.instrs)):
            if kinds[i] is not arith:
                continue
            reads = [
                rid for rid in flat.bank_reads(i, regclass) if reg_virtual[rid]
            ]
            if len(reads) < 2:
                continue
            cost = instr_cost[i]
            for rid in reads:
                if rid not in adj:
                    adj[rid] = set()
                    node_order.append(rid)
            for x in range(len(reads) - 1):
                a = reads[x]
                for y in range(x + 1, len(reads)):
                    b = reads[y]
                    key = (a, b) if a < b else (b, a)
                    adj[a].add(b)
                    adj[b].add(a)
                    edge_cost[key] = edge_cost.get(key, 0.0) + cost
        regs = flat.regs
        graph.adjacency = {
            regs[r]: {regs[n] for n in adj[r]} for r in node_order
        }
        graph.node_cost = {
            regs[r]: cost_model.cost_of_register(regs[r]) for r in node_order
        }
        graph.edge_cost = {
            frozenset((regs[a], regs[b])): c
            for (a, b), c in edge_cost.items()
        }
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nodes(self) -> list[VirtualRegister]:
        return list(self.adjacency)

    def neighbors(self, reg: VirtualRegister) -> set[VirtualRegister]:
        return self.adjacency.get(reg, set())

    def degree(self, reg: VirtualRegister) -> int:
        return len(self.adjacency.get(reg, ()))

    def cost(self, reg: VirtualRegister) -> float:
        return self.node_cost.get(reg, 0.0)

    def edge_conflict_cost(self, a: VirtualRegister, b: VirtualRegister) -> float:
        return self.edge_cost.get(frozenset((a, b)), 0.0)

    def edge_count(self) -> int:
        return len(self.edge_cost)

    def components(self) -> list[set[VirtualRegister]]:
        """Connected components (the disjoint sub-graphs Algorithm 1
        processes in descending max-conflict-cost order)."""
        seen: set[VirtualRegister] = set()
        result = []
        for root in self.adjacency:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            seen.add(root)
            while stack:
                node = stack.pop()
                for nb in self.adjacency[node]:
                    if nb not in seen:
                        seen.add(nb)
                        comp.add(nb)
                        stack.append(nb)
            result.append(comp)
        return result

    def add_soft_edge(self, a: VirtualRegister, b: VirtualRegister, cost: float) -> None:
        """Record a tie-breaking-only edge (see ``soft_adjacency``)."""
        if a == b:
            return
        self.soft_adjacency.setdefault(a, set()).add(b)
        self.soft_adjacency.setdefault(b, set()).add(a)
        key = frozenset((a, b))
        self.soft_edge_cost[key] = self.soft_edge_cost.get(key, 0.0) + cost

    def soft_penalty(
        self,
        node: VirtualRegister,
        color: int,
        colors: dict[VirtualRegister, int],
    ) -> float:
        """Summed soft-edge cost of giving *node* the same color as its
        already-colored soft neighbors."""
        total = 0.0
        for neighbor in self.soft_adjacency.get(node, ()):
            if colors.get(neighbor) == color:
                total += self.soft_edge_cost[frozenset((node, neighbor))]
        return total

    def coloring_conflict_cost(self, colors: dict[VirtualRegister, int]) -> float:
        """Total residual cost of monochromatic edges under *colors*.

        Uncolored endpoints (missing from the mapping) are treated as
        non-conflicting, matching the semantics during incremental
        coloring.
        """
        total = 0.0
        for key, cost in self.edge_cost.items():
            a, b = tuple(key)
            if a in colors and b in colors and colors[a] == colors[b]:
                total += cost
        return total

    def is_proper_coloring(self, colors: dict[VirtualRegister, int]) -> bool:
        """True when every node is colored and no edge is monochromatic."""
        for node in self.adjacency:
            if node not in colors:
                return False
        for key in self.edge_cost:
            a, b = tuple(key)
            if colors[a] == colors[b]:
                return False
        return True

    def __len__(self) -> int:
        return len(self.adjacency)

    def __contains__(self, reg: VirtualRegister) -> bool:
        return reg in self.adjacency
