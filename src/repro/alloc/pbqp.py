"""PBQP register allocation (Scholz–Eckstein), with bank-aware costs.

The paper's related work singles out Partitioned Boolean Quadratic
Programming as *the* framework for irregular register constraints
(Scholz & Eckstein [31], Hames & Scholz [32]; LLVM ships a PBQP
allocator [34]), and its conclusion proposes "investigating the
incorporation of PresCount with other RA methods".  This module does
exactly that incorporation: bank conflicts become quadratic cost terms,
so one solver trades off spilling against bank conflicts globally.

Model per function:

* one PBQP *node* per virtual register; its domain is
  ``[spill] + allowed physical registers``;
* node cost vector: ``spill_weight`` for the spill option, 0 for
  registers (plus a small bank-preference nudge when a
  :class:`~repro.banks.assignment.BankAssignment` is supplied);
* an *interference edge* between overlapping vregs: infinite cost for
  picking the same register;
* a *conflict edge* between co-read operands (the RCG): ``Cost_I`` for
  picking same-bank registers — the PresCount objective folded into the
  PBQP matrix.

Solved with the classic heuristic reduction: degree-0/1/2 nodes are
eliminated exactly (R0/R1/R2), higher-degree nodes heuristically (RN),
then selections back-propagate.  This is the textbook algorithm; no
attempt is made at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..banks.assignment import BankAssignment
from ..banks.register_file import RegisterFile
from ..ir.function import Function
from ..ir.types import FP, PhysicalRegister, RegClass, VirtualRegister
from ..passes import (
    CFG_ONLY,
    AnalysisManager,
    ConflictCostAnalysis,
    ConflictGraphAnalysis,
    FlatIRAnalysis,
    InterferenceAnalysis,
    LiveIntervalsAnalysis,
)
from .base import AllocationError, AllocationResult
from .spiller import SpillPlan, materialize, spill_interval

#: Cost standing in for "forbidden" (same register on interfering vregs).
INFINITY = 1e18


@dataclass
class _Node:
    vreg: VirtualRegister
    options: list[PhysicalRegister | None]  # None = spill
    costs: np.ndarray  # vector, len(options)
    edges: dict[VirtualRegister, np.ndarray] = field(default_factory=dict)
    # matrix[i][j]: cost of (self=options[i], other=their options[j])


@dataclass
class PbqpAllocator:
    """Bank-aware PBQP register allocator.

    Attributes:
        register_file: Target banked register file.
        bank_conflict_weight: Scale applied to RCG edge costs in the
            quadratic terms (0 disables bank awareness entirely —
            the plain PBQP baseline).
        bank_assignment: Optional PresCount assignment; when given, each
            register choice outside the assigned bank pays a small linear
            nudge, integrating Algorithm 1's decision into the solve.
        max_registers_per_node: Domain cap; large files are truncated to
            the first N registers of each bank (round-robin) to keep the
            matrices small.  Plenty for the function sizes generated here.
    """

    register_file: RegisterFile
    regclass: RegClass = FP
    bank_conflict_weight: float = 1.0
    bank_assignment: BankAssignment | None = None
    max_registers_per_node: int = 64
    spill_rounds: int = 8

    # ------------------------------------------------------------------
    def run(self, function: Function, *, clone: bool = True) -> AllocationResult:
        """Allocate *function*, spilling and re-solving up to
        ``spill_rounds`` times.  One :class:`AnalysisManager` serves the
        whole run: spill code never touches the block graph, so each
        round drops all but the CFG-level analyses."""
        if clone:
            function = function.clone()
        result = AllocationResult(function)
        plan = SpillPlan()
        am = AnalysisManager(function)
        #: Reload/store vregs from earlier rounds: spilling them again
        #: would never converge, so their spill option costs infinity.
        unspillable: set[VirtualRegister] = set()

        for _round in range(self.spill_rounds):
            # The lowering the intervals were built from: their slots index it.
            flat = am.get(FlatIRAnalysis)
            live = am.get(LiveIntervalsAnalysis)
            solution, spill_choices = self._solve_once(am, unspillable)
            if not spill_choices:
                result.assignment.update(solution)
                result.spill_instructions += materialize(
                    function, plan, result.assignment
                )
                return result
            for vreg in spill_choices:
                if vreg in plan.slot_of_vreg:
                    raise AllocationError(
                        f"pbqp: {vreg!r} spilled twice in {function.name}"
                    )
                result.spilled.add(vreg)
                for tiny in spill_interval(function, flat, live.of(vreg), plan):
                    unspillable.add(tiny.reg)
            # Spill code keeps its tiny vregs; the next round allocates them.
            result.spill_instructions += materialize(function, plan, {})
            am.invalidate(CFG_ONLY)
        raise AllocationError(
            f"pbqp: did not converge within {self.spill_rounds} spill rounds"
        )

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def _domain(self) -> list[PhysicalRegister]:
        registers = self.register_file.registers()
        if len(registers) <= self.max_registers_per_node:
            return registers
        # Round-robin across banks so every bank stays represented.
        by_bank = [
            self.register_file.registers_in_bank(b)
            for b in range(self.register_file.num_banks)
        ]
        picked: list[PhysicalRegister] = []
        index = 0
        while len(picked) < self.max_registers_per_node:
            for bank_regs in by_bank:
                if index < len(bank_regs):
                    picked.append(bank_regs[index])
                    if len(picked) == self.max_registers_per_node:
                        break
            index += 1
        return picked

    def _build_nodes(
        self,
        am: AnalysisManager,
        unspillable: set[VirtualRegister] = frozenset(),
    ) -> dict[VirtualRegister, _Node]:
        cost_model = am.get(ConflictCostAnalysis, regclass=self.regclass)
        rig = am.get(InterferenceAnalysis, regclass=self.regclass)
        rcg = am.get(ConflictGraphAnalysis, regclass=self.regclass)
        domain = self._domain()

        # Every node has the same options, so the option list and the two
        # edge matrices are built once: picking the same register (the
        # diagonal past the spill option; domain registers are distinct)
        # is forbidden, and picking two registers of one bank costs 1
        # before scaling.
        options: list[PhysicalRegister | None] = [None] + list(domain)
        same_register = np.diag([0.0] + [INFINITY] * len(domain))
        banks = np.array([self.register_file.bank_of(r) for r in domain])
        same_bank = np.zeros((len(options), len(options)))
        same_bank[1:, 1:] = banks[:, None] == banks[None, :]

        nodes: dict[VirtualRegister, _Node] = {}
        for interval in am.get(LiveIntervalsAnalysis).vreg_intervals(self.regclass):
            vreg = interval.reg
            costs = np.zeros(len(options))
            if vreg in unspillable:
                costs[0] = INFINITY
            else:
                # Spilling costs ~2 cycles (store+reload) per dynamic
                # access — "register spillings are commonly regarded as
                # more expensive than bank conflicts" (§I), so the spill
                # option must outprice the ~1-cycle conflict terms.
                costs[0] = max(1e-3, 2.0 * cost_model.access_cost(vreg))
            if self.bank_assignment is not None:
                wanted = self.bank_assignment.bank_of(vreg)
                if wanted is not None:
                    for i, option in enumerate(options[1:], start=1):
                        if self.register_file.bank_of(option) != wanted:
                            costs[i] += 1e-3
            nodes[vreg] = _Node(vreg, options, costs)

        # Interference edges: same-register forbidden.
        for a in rig.nodes():
            if a not in nodes:
                continue
            for b in rig.neighbors(a):
                if b not in nodes or b.vid <= a.vid:
                    continue
                self._add_edge(nodes, a, b, same_register)

        # Conflict edges: same-bank penalized by Cost_I (the PresCount
        # objective as quadratic terms).
        if self.bank_conflict_weight > 0:
            for key, cost in rcg.edge_cost.items():
                a, b = tuple(key)
                if a not in nodes or b not in nodes:
                    continue
                matrix = same_bank * (cost * self.bank_conflict_weight)
                self._add_edge(nodes, a, b, matrix)
        return nodes

    @staticmethod
    def _add_edge(nodes, a, b, matrix) -> None:
        """Add *matrix* to edge (a, b); matrices are never updated in
        place, so one matrix may back many edges."""
        node_a, node_b = nodes[a], nodes[b]
        if b in node_a.edges:
            node_a.edges[b] = node_a.edges[b] + matrix
            node_b.edges[a] = node_b.edges[a] + matrix.T
        else:
            node_a.edges[b] = matrix
            node_b.edges[a] = matrix.T

    # ------------------------------------------------------------------
    # Heuristic PBQP solve
    # ------------------------------------------------------------------
    def _solve_once(self, am, unspillable=frozenset()):
        nodes = self._build_nodes(am, unspillable)
        order: list[VirtualRegister] = []
        alive = dict(nodes)
        #: Alive neighbours per alive node, lowered as neighbours go.
        degree = {v: len(node.edges) for v, node in nodes.items()}

        def eliminate(v):
            order.append(v)
            del alive[v]
            for u in nodes[v].edges:
                if u in alive:
                    degree[u] -= 1

        while alive:
            # R0: independent nodes drop immediately.
            for v in [v for v in alive if degree[v] == 0]:
                eliminate(v)
            if not alive:
                break
            # R1: degree-1 elimination (exact).
            one = next((v for v in alive if degree[v] == 1), None)
            if one is not None:
                self._reduce_r1(nodes, alive, one)
                eliminate(one)
                continue
            # RN: heuristically eliminate the max-degree node.
            eliminate(max(alive, key=lambda v: (degree[v], v.vid)))

        # Back-propagate selections in reverse elimination order.
        selection: dict[VirtualRegister, int] = {}
        for vreg in reversed(order):
            node = nodes[vreg]
            totals = node.costs.copy()
            for other, matrix in node.edges.items():
                if other in selection:
                    totals = totals + matrix[:, selection[other]]
            selection[vreg] = int(np.argmin(totals))

        assignment: dict[VirtualRegister, PhysicalRegister] = {}
        spills: list[VirtualRegister] = []
        for vreg, index in selection.items():
            option = nodes[vreg].options[index]
            if option is None:
                spills.append(vreg)
            else:
                assignment[vreg] = option
        # Safety: verify no interference violation slipped through the
        # heuristic (can happen with RN); demote violators to spills.
        rig = am.get(InterferenceAnalysis, regclass=self.regclass)
        for a in list(assignment):
            for b in rig.neighbors(a):
                if b in assignment and assignment[a] == assignment[b]:
                    weight_a = nodes[a].costs[0]
                    weight_b = nodes[b].costs[0]
                    victim = a if weight_a <= weight_b else b
                    if victim in unspillable:
                        victim = b if victim is a else a
                    if victim in assignment and victim not in unspillable:
                        del assignment[victim]
                        spills.append(victim)
        return assignment, spills

    def _reduce_r1(self, nodes, alive, vreg) -> None:
        """Fold a degree-1 node's best responses into its neighbor."""
        node = nodes[vreg]
        neighbor = next(u for u in node.edges if u in alive)
        matrix = node.edges[neighbor]  # shape: |v| x |n|
        folded = (node.costs[:, None] + matrix).min(axis=0)
        nodes[neighbor].costs = nodes[neighbor].costs + folded
