"""Subgroup assignment for the bank-subgroup DSA — Algorithm 2.

On the DSA every instruction's operands must share a *subgroup* (the
"subgroup alignment" constraint of Fig. 7).  The registers connected
through instructions form the components of the Same Displacement Graph;
each component must receive one *displacement* (subgroup number).

Algorithm 2 runs during register allocation, as a hint generator:

1. resolve the virtual register's bank (split-generated registers inherit
   their parent's, the first branch of the algorithm);
2. find the SDG component ("subgroup") containing the register;
3. if the component already has a displacement, reuse it; otherwise pick
   the least-used displacement (``MinUsed``) and charge it with the
   component's size — this is the balancing that large, unsplit
   components defeat (hence :mod:`repro.prescount.sdg_split`);
4. hint all physical registers conforming to (bank, displacement).

The hints stay soft for the allocator (live-range interference can
override them); violations that remain are counted as conflicts by the
DSA machine model, exactly as the hardware would serialize them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.intervals import LiveInterval
from ..analysis.sdg import SameDisplacementGraph
from ..banks.assignment import BankAssignment, SubgroupAssignment
from ..banks.register_file import BankSubgroupRegisterFile
from ..ir.function import Function
from ..ir.types import FP, PhysicalRegister, RegClass, VirtualRegister


@dataclass
class SubgroupState:
    """``groupDispls`` bookkeeping of Algorithm 2.

    Components are identified by integer ids; ``component_of`` maps each
    aligned register to its component.

    Displacement choice is *pressure-aware* (the §III-A note that the
    enhanced allocation "tak[es] into account ... the register subgroup
    pressure"): when live intervals are supplied, a fresh component gets
    the displacement whose maximum live-range overlap grows least —
    size-based ``MinUsed`` remains the fallback when no liveness is
    available.
    """

    num_subgroups: int
    component_of: dict[VirtualRegister, int] = field(default_factory=dict)
    component_size: dict[int, int] = field(default_factory=dict)
    group_displacements: dict[int, int] = field(default_factory=dict)
    usage: dict[int, int] = field(default_factory=dict)
    _next_component: int = 0
    #: Per-displacement live-pressure tracker (lazy; one "bank" per
    #: displacement) plus the registers already charged to it.
    _pressure: "object | None" = None
    _tracked: set[VirtualRegister] = field(default_factory=set)

    @classmethod
    def from_function(
        cls,
        function: Function,
        num_subgroups: int,
        regclass: RegClass | None = FP,
        sdg: SameDisplacementGraph | None = None,
        am=None,
    ) -> "SubgroupState":
        from ..obs import TRACER

        with TRACER.span(
            "subgroup-state", category="stage", function=function.name
        ) as span:
            if sdg is None:
                if am is not None:
                    from ..passes import SDGAnalysis

                    sdg = am.get(SDGAnalysis, regclass=regclass)
                else:
                    sdg = SameDisplacementGraph.build(function, regclass)
            state = cls(num_subgroups)
            for component in sdg.components():
                state.add_component(component)
            span.note(**{"subgroup.components": len(state.component_size)})
            return state

    # ------------------------------------------------------------------
    def add_component(self, members: set[VirtualRegister]) -> int:
        comp_id = self._next_component
        self._next_component += 1
        for reg in members:
            self.component_of[reg] = comp_id
        self.component_size[comp_id] = len(members)
        return comp_id

    def adopt(self, reg: VirtualRegister, like: VirtualRegister | None = None) -> int:
        """Place a late register (split/spill-generated) into a component:
        the component of *like* when given, else a fresh singleton."""
        if like is not None and like in self.component_of:
            comp_id = self.component_of[like]
            self.component_of[reg] = comp_id
            self.component_size[comp_id] += 1
            return comp_id
        return self.add_component({reg})

    def min_used(self) -> int:
        """``MinUsed(ALLSUBGROUPS)``."""
        return min(
            range(self.num_subgroups), key=lambda d: (self.usage.get(d, 0), d)
        )

    def displacement_for(
        self, reg: VirtualRegister, interval: LiveInterval | None = None
    ) -> int:
        """Resolve (assigning on first touch) the displacement of *reg*.

        With *interval* given, a fresh component is placed on the
        displacement with the least resulting live pressure, and the
        register's interval is charged to that displacement's tracker.
        """
        comp_id = self.component_of.get(reg)
        if comp_id is None:
            comp_id = self.adopt(reg)
        displ = self.group_displacements.get(comp_id)
        if displ is None:
            if interval is not None:
                tracker = self._tracker()
                displ = tracker.least_pressured_banks(interval)[0]
            else:
                displ = self.min_used()
            self.group_displacements[comp_id] = displ
            # "Increase the usage of subGroup by its size".
            self.usage[displ] = self.usage.get(displ, 0) + self.component_size[comp_id]
        if interval is not None and reg not in self._tracked:
            self._tracked.add(reg)
            self._tracker().assign(displ, interval)
        return displ

    def _tracker(self):
        from ..analysis.pressure import BankPressureTracker

        if self._pressure is None:
            self._pressure = BankPressureTracker(self.num_subgroups)
        return self._pressure

    def as_assignment(self) -> SubgroupAssignment:
        """Flatten into per-register displacements (for reporting)."""
        flat = SubgroupAssignment(self.num_subgroups)
        for reg, comp_id in self.component_of.items():
            displ = self.group_displacements.get(comp_id)
            if displ is not None:
                flat.displacements[reg] = displ
        flat.usage = dict(self.usage)
        return flat


class DsaPresCountPolicy:
    """Allocator policy for the DSA: bank assignment + Algorithm 2 hints.

    Candidate order for a register with bank *b* and displacement *d*:

    1. ``FindAllRegistersConforming(b, d)`` — the Algorithm 2 hints;
    2. the rest of bank *b* (bank constraint satisfied, alignment not);
    3. every other register (last resort over spilling).
    """

    def __init__(
        self,
        register_file: BankSubgroupRegisterFile,
        bank_assignment: BankAssignment,
        subgroups: SubgroupState,
    ):
        self.register_file = register_file
        self.bank_assignment = bank_assignment
        self.subgroups = subgroups
        # Filter one registers() list: the same sequences that
        # registers_in_bank and registers_conforming return.
        self._all = register_file.registers()
        self._by_bank = [
            [r for r in self._all if register_file.bank_of(r) == b]
            for b in range(register_file.num_banks)
        ]
        self._conforming = {
            (b, d): [r for r in self._by_bank[b] if register_file.subgroup_of(r) == d]
            for b in range(register_file.num_banks)
            for d in range(register_file.num_subgroups)
        }
        # Lazy per-(bank, displacement) candidate lists: the order is a
        # pure function of the pair, so each is assembled once instead of
        # on every `order` call.
        self._ordered: dict[tuple[int, int], list[PhysicalRegister]] = {}

    def setup(self, allocator) -> None:
        pass

    def order(
        self, vreg: VirtualRegister, interval: LiveInterval
    ) -> Sequence[PhysicalRegister]:
        bank = self.bank_assignment.bank_of(vreg)
        if bank is None:
            return self._all
        displ = self.subgroups.displacement_for(vreg, interval)
        cached = self._ordered.get((bank, displ))
        if cached is not None:
            return cached
        hints = self._conforming[(bank, displ)]
        hinted = set(hints)
        same_bank = [r for r in self._by_bank[bank] if r not in hinted]
        rest = [r for r in self._all if self.register_file.bank_of(r) != bank]
        ordered = list(hints) + same_bank + rest
        self._ordered[(bank, displ)] = ordered
        return ordered

    def on_assign(self, vreg: VirtualRegister, preg: PhysicalRegister) -> None:
        pass

    def on_unassign(self, vreg: VirtualRegister, preg: PhysicalRegister) -> None:
        pass

    def on_split(self, parent: VirtualRegister, children: list[VirtualRegister]) -> None:
        """Split-generated registers keep the parent's bank *and* subgroup
        (they are copies of the same value, so alignment must carry over)."""
        bank = self.bank_assignment.bank_of(parent)
        for child in children:
            if bank is not None:
                self.bank_assignment.assign(child, bank)
            self.subgroups.adopt(child, like=parent)
