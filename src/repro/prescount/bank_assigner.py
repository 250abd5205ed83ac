"""PresCount RCG-based bank assignment — Algorithm 1 of the paper.

The assigner colors the Register Conflict Graph with one color per bank:

* disjoint RCG components are processed in descending max conflict cost;
* within a component, a work list is grown from the costliest node,
  always expanding the (cost, degree)-maximal uncolored node;
* available colors (not used by RCG neighbors) are prioritized by the
  **bank pressure count** — the bank whose maximum live-range overlap
  grows least wins (``PresCountPrioritize``);
* when no conflict-free color exists, the node is *uncolorable*: if the
  overall register pressure exceeds ``THRES`` the pressure-minimal color
  is still chosen (spills are costlier than conflicts), otherwise the
  color with the least accumulated neighbor ``Cost_R``
  (``NeighbourCostPrioritize``) minimizes the residual conflict penalty.

After the RCG is colored, *free registers* — vregs of the class that
never appear in the RCG — are balanced across banks the same way, because
leaving them to the allocator's arbitrary choices would unbalance the
banks again (end of §III-B).

:class:`PresCountPolicy` plugs the resulting
:class:`~repro.banks.assignment.BankAssignment` into the greedy allocator:
candidates from the assigned bank come first (soft constraint on the RV
platforms, strict on the DSA), and split-generated registers inherit the
bank of their parent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.conflict_graph import ConflictGraph
from ..analysis.cost import ConflictCostModel
from ..analysis.intervals import LiveInterval, LiveIntervals
from ..analysis.pressure import BankPressureTracker
from ..banks.assignment import BankAssignment
from ..banks.register_file import RegisterFile
from ..ir.function import Function
from ..ir.types import FP, PhysicalRegister, RegClass, VirtualRegister
from ..obs import TRACER

#: The three Algorithm 1 outcomes an RCG-node decision can take (the
#: ``path`` of its ``--explain`` record).
PATH_CONFLICT_FREE = "conflict-free"
PATH_THRESHOLD_FALLBACK = "threshold-fallback"
PATH_NEIGHBOUR_COST = "neighbour-cost"

#: Default overall-register-pressure threshold, as a fraction of the
#: register file size, above which Algorithm 1 keeps minimizing pressure
#: even for uncolorable nodes.
DEFAULT_THRES_RATIO = 0.8


@dataclass
class PresCountBankAssigner:
    """Computes a :class:`BankAssignment` for one function (Algorithm 1)."""

    register_file: RegisterFile
    regclass: RegClass = FP
    thres_ratio: float = DEFAULT_THRES_RATIO
    #: Disable to ablate the bank-pressure heuristic (ties then break by
    #: bank occupancy and index only) — `bench_ablation_pressure`.
    use_pressure_counting: bool = True
    #: Order nodes by degree instead of cost to ablate Eq. 1/2
    #: prioritization — `bench_ablation_order`.
    cost_ordering: bool = True
    balance_free_registers: bool = True

    def assign(
        self,
        function: Function,
        rcg: ConflictGraph | None = None,
        intervals: LiveIntervals | None = None,
        cost_model: ConflictCostModel | None = None,
    ) -> BankAssignment:
        """Run the bank assignment phase on *function*."""
        # Explicit None checks: these objects define __len__, so an empty
        # graph (e.g. soft-edges-only, from the bundle-aware extension)
        # is falsy and `or` would silently rebuild it.
        if cost_model is None:
            cost_model = ConflictCostModel.build(function, regclass=self.regclass)
        if rcg is None:
            rcg = ConflictGraph.build(function, cost_model, self.regclass)
        if intervals is None:
            intervals = LiveIntervals.build(function)

        num_banks = self.register_file.num_banks
        assignment = BankAssignment(num_banks)
        tracker = BankPressureTracker(num_banks)
        reg_pressure = intervals.max_pressure(self.regclass)
        thres = self.thres_ratio * self.register_file.num_registers

        unprocessed: set[VirtualRegister] = set(rcg.nodes())

        def priority(node: VirtualRegister) -> tuple:
            if self.cost_ordering:
                return (rcg.cost(node), rcg.degree(node), -node.vid)
            return (rcg.degree(node), rcg.cost(node), -node.vid)

        # The (cost, degree, -vid) key never changes while coloring, so
        # seeds come from one upfront sort and the worklist is a heap.  A
        # node enters the worklist at most once — once colored it leaves
        # `unprocessed` for good — so heap membership mirrors the worklist
        # set exactly and each pop IS the maximum: no lazy deletion.
        # `-vid` makes the key a total order, so the selection sequence
        # equals repeatedly taking `max(worklist, key=priority)`.
        prio = {node: priority(node) for node in unprocessed}
        seed_order = sorted(unprocessed, key=prio.__getitem__, reverse=True)
        seed_pos = 0
        while unprocessed:
            while seed_order[seed_pos] not in unprocessed:
                seed_pos += 1
            seed = seed_order[seed_pos]
            worklist: set[VirtualRegister] = {seed}
            pk = prio[seed]
            heap = [(-pk[0], -pk[1], -pk[2], seed)]
            while worklist:
                node = heapq.heappop(heap)[3]
                worklist.discard(node)
                unprocessed.discard(node)
                self._color_node(
                    function, node, rcg, intervals, assignment,
                    tracker, reg_pressure, thres, num_banks,
                )
                for neighbor in rcg.neighbors(node):
                    if neighbor in unprocessed and neighbor not in worklist:
                        worklist.add(neighbor)
                        pk = prio[neighbor]
                        heapq.heappush(heap, (-pk[0], -pk[1], -pk[2], neighbor))

        if self.balance_free_registers:
            with TRACER.span(
                "free-balance", category="stage", function=function.name
            ):
                self._assign_free_registers(
                    function, rcg, intervals, assignment, tracker
                )

        assignment.residual_cost = rcg.coloring_conflict_cost(assignment.banks)
        if TRACER.enabled:
            facts = {
                "prescount.rcg_nodes": len(rcg),
                "prescount.rcg_edges": rcg.edge_count(),
                "prescount.residual_cost": assignment.residual_cost,
            }
            if assignment.uncolorable:
                facts["prescount.uncolorable"] = len(assignment.uncolorable)
            for bank in range(num_banks):
                facts[f"prescount.bank_pressure.bank{bank}"] = (
                    tracker.pressure(bank)
                )
            TRACER.note(**facts)
        return assignment

    # ------------------------------------------------------------------
    def _color_node(
        self,
        function: Function,
        node: VirtualRegister,
        rcg: ConflictGraph,
        intervals: LiveIntervals,
        assignment: BankAssignment,
        tracker: BankPressureTracker,
        reg_pressure: int,
        thres: float,
        num_banks: int,
    ) -> None:
        """Color one work-list node (the body of Algorithm 1's loop)."""
        interval = intervals.of(node)
        neighbor_colors = {
            assignment.banks[nb]
            for nb in rcg.neighbors(node)
            if nb in assignment.banks
        }
        avail = [c for c in range(num_banks) if c not in neighbor_colors]
        if avail:
            path = PATH_CONFLICT_FREE
            ordered = self._prescount_prioritize(
                avail, interval, tracker, node=node, rcg=rcg, assignment=assignment
            )
        else:
            assignment.uncolorable.add(node)
            all_colors = list(range(num_banks))
            if reg_pressure > thres:
                path = PATH_THRESHOLD_FALLBACK
                ordered = self._prescount_prioritize(
                    all_colors, interval, tracker,
                    node=node, rcg=rcg, assignment=assignment,
                )
            else:
                path = PATH_NEIGHBOUR_COST
                ordered = self._neighbour_cost_prioritize(
                    all_colors, node, rcg, assignment
                )
        color = ordered[0]
        if TRACER.wants("explain"):
            self._audit_decision(
                function, node, path, ordered, interval,
                tracker, rcg, assignment, reg_pressure, thres,
            )
        assignment.assign(node, color)
        tracker.assign(color, interval)

    # ------------------------------------------------------------------
    def _audit_decision(
        self,
        function: Function,
        node: VirtualRegister,
        path: str,
        ordered: list[int],
        interval: LiveInterval,
        tracker: BankPressureTracker,
        rcg: ConflictGraph,
        assignment: BankAssignment,
        reg_pressure: int,
        thres: float,
    ) -> None:
        """Record one Algorithm 1 work-list decision (``--explain``).

        Called before the tracker/assignment mutate, so the candidate keys
        reflect exactly what the prioritizers ranked on.
        """
        if path == PATH_NEIGHBOUR_COST:
            candidates = [
                {
                    "bank": c,
                    "neighbour_cost": sum(
                        rcg.cost(nb)
                        for nb in rcg.neighbors(node)
                        if assignment.banks.get(nb) == c
                    ),
                }
                for c in ordered
            ]
        else:
            candidates = [
                {
                    "bank": c,
                    "pressure_if_assigned": tracker.pressure_if_assigned(c, interval),
                    "occupancy": tracker.occupancy(c),
                }
                for c in ordered
            ]
        TRACER.fact(
            "decision",
            function=function.name,
            vreg=node.name,
            step="rcg-color",
            path=path,
            chosen=ordered[0],
            detail={
                "cost": rcg.cost(node),
                "degree": rcg.degree(node),
                "ordering": "cost" if self.cost_ordering else "degree",
                "pressure_counting": self.use_pressure_counting,
                "reg_pressure": reg_pressure,
                "thres": thres,
                "neighbor_banks": {
                    nb.name: assignment.banks[nb]
                    for nb in sorted(rcg.neighbors(node), key=lambda r: r.vid)
                    if nb in assignment.banks
                },
                "candidates": candidates,
            },
        )

    # ------------------------------------------------------------------
    def _prescount_prioritize(
        self,
        colors: list[int],
        interval: LiveInterval,
        tracker: BankPressureTracker,
        *,
        node: VirtualRegister | None = None,
        rcg: ConflictGraph | None = None,
        assignment: BankAssignment | None = None,
    ) -> list[int]:
        """``PresCountPrioritize``: least resulting bank pressure first.

        Soft (bundle) edges break ties after pressure: among equally
        pressured banks, prefer the one not shared with bundle partners
        (the future-work extension of §IV-B3).
        """

        def soft(color: int) -> float:
            if node is None or rcg is None or assignment is None:
                return 0.0
            if not rcg.soft_adjacency:
                return 0.0
            return rcg.soft_penalty(node, color, assignment.banks)

        if not self.use_pressure_counting:
            return sorted(colors, key=lambda c: (soft(c), tracker.occupancy(c), c))
        return sorted(
            colors,
            key=lambda c: (
                tracker.pressure_if_assigned(c, interval),
                soft(c),
                tracker.occupancy(c),
                c,
            ),
        )

    def _neighbour_cost_prioritize(
        self,
        colors: list[int],
        node: VirtualRegister,
        rcg: ConflictGraph,
        assignment: BankAssignment,
    ) -> list[int]:
        """``NeighbourCostPrioritize``: least accumulated ``Cost_R`` over
        same-colored neighbors first — the conflicts this choice leaves
        behind are the cheapest ones."""
        def accumulated_cost(color: int) -> float:
            return sum(
                rcg.cost(nb)
                for nb in rcg.neighbors(node)
                if assignment.banks.get(nb) == color
            )

        return sorted(colors, key=lambda c: (accumulated_cost(c), c))

    def _assign_free_registers(
        self,
        function: Function,
        rcg: ConflictGraph,
        intervals: LiveIntervals,
        assignment: BankAssignment,
        tracker: BankPressureTracker,
    ) -> None:
        """Balance the vregs absent from the RCG across banks (§III-B)."""
        free = [
            iv
            for iv in intervals.vreg_intervals(self.regclass)
            if iv.reg not in rcg
        ]
        # Longest intervals first: they constrain the banks the most.
        free.sort(key=lambda iv: (-iv.size, iv.reg.vid))
        for interval in free:
            ordered = self._prescount_prioritize(
                list(range(assignment.num_banks)),
                interval,
                tracker,
                node=interval.reg,
                rcg=rcg,
                assignment=assignment,
            )
            bank = ordered[0]
            if TRACER.wants("explain"):
                TRACER.fact(
                    "decision",
                    function=function.name,
                    vreg=interval.reg.name,
                    step="free-balance",
                    path=PATH_CONFLICT_FREE,
                    chosen=bank,
                    detail={
                        "interval_size": interval.size,
                        "candidates": [
                            {
                                "bank": c,
                                "pressure_if_assigned": (
                                    tracker.pressure_if_assigned(c, interval)
                                ),
                                "occupancy": tracker.occupancy(c),
                            }
                            for c in ordered
                        ],
                    },
                )
            assignment.assign(interval.reg, bank)
            tracker.assign(bank, interval)


class PresCountPolicy:
    """Greedy-allocator policy applying a precomputed bank assignment.

    Candidate order for a vreg with bank *b*: registers of bank *b* in
    index order, then (unless *strict*) the remaining banks ordered by
    index.  Vregs without a bank (spill reloads) see the full file.
    Split-generated registers inherit their parent's bank via
    :meth:`on_split`.
    """

    def __init__(
        self,
        register_file: RegisterFile,
        assignment: BankAssignment,
        strict: bool | None = None,
    ):
        self.register_file = register_file
        self.assignment = assignment
        self.strict = assignment.strict if strict is None else strict
        self._by_bank: list[list[PhysicalRegister]] = [
            register_file.registers_in_bank(b)
            for b in range(register_file.num_banks)
        ]
        self._all = register_file.registers()
        # Candidate order is a pure function of the bank, so the per-bank
        # lists are built once here instead of per `order` call (the
        # allocator copies what it receives).
        self._ordered_by_bank = [
            list(self._by_bank[b])
            + [r for r in self._all if register_file.bank_of(r) != b]
            for b in range(register_file.num_banks)
        ]

    def setup(self, allocator) -> None:
        pass

    def order(
        self, vreg: VirtualRegister, interval: LiveInterval
    ) -> Sequence[PhysicalRegister]:
        bank = self.assignment.bank_of(vreg)
        if bank is None:
            return self._all
        if self.strict:
            return self._by_bank[bank]
        return self._ordered_by_bank[bank]

    def on_assign(self, vreg: VirtualRegister, preg: PhysicalRegister) -> None:
        pass

    def on_unassign(self, vreg: VirtualRegister, preg: PhysicalRegister) -> None:
        pass

    def on_split(self, parent: VirtualRegister, children: list[VirtualRegister]) -> None:
        """Algorithm 2's split-generated-register rule, bank part: children
        keep the parent's bank so the assignment stays coherent."""
        bank = self.assignment.bank_of(parent)
        if bank is None:
            return
        for child in children:
            self.assignment.assign(child, bank)
