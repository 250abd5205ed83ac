"""The `bcr` baseline: Intel-Graphics-style bank conflict reduction.

Mimics the heuristic of Chen et al. (CGO 2018) as characterized by the
paper: a greedy bank preference applied **inside** register allocation via
register hinting, looking only at single instructions — when a virtual
register is being assigned, prefer banks different from the banks of the
operands it is co-read with, *when feasible* (never at the price of a
spill, so the preference is soft and the full register file remains
available).  There is no conflict-cost model beyond instruction frequency,
no RCG, no bank pressure tracking, and no free-register balancing —
exactly the gaps PresCount fills.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.intervals import LiveInterval
from ..banks.register_file import RegisterFile
from ..ir.function import Function
from ..ir.types import FP, PhysicalRegister, RegClass, VirtualRegister
from ..passes import ConflictCostAnalysis


class BcrPolicy:
    """Per-instruction greedy bank hinting for the greedy allocator."""

    def __init__(self, register_file: RegisterFile, regclass: RegClass = FP):
        self.register_file = register_file
        self.regclass = regclass
        self._all = register_file.registers()
        self._by_bank = [
            register_file.registers_in_bank(b)
            for b in range(register_file.num_banks)
        ]
        #: vreg -> [(co-read vreg, instruction frequency), ...]
        self._partners: dict[VirtualRegister, list[tuple[VirtualRegister, float]]] = {}
        self._allocator = None

    # ------------------------------------------------------------------
    def setup(self, allocator) -> None:
        self._allocator = allocator
        function: Function = allocator.function
        cost_model = allocator.analyses.get(
            ConflictCostAnalysis, regclass=self.regclass
        )
        self._partners = {}
        for _, instr in function.instructions():
            if not instr.is_conflict_relevant(self.regclass):
                continue
            reads = [
                r for r in instr.bankable_reads(self.regclass)
                if isinstance(r, VirtualRegister)
            ]
            freq = cost_model.cost_of_instruction(instr)
            for reg in reads:
                for other in reads:
                    if other != reg:
                        self._partners.setdefault(reg, []).append((other, freq))

    def order(
        self, vreg: VirtualRegister, interval: LiveInterval
    ) -> Sequence[PhysicalRegister]:
        partners = self._partners.get(vreg)
        if not partners or self._allocator is None:
            return self._all
        assignment = self._allocator.current_assignment()
        # Weight each bank by the frequency of conflicts it would cause
        # with already-assigned co-read operands.
        penalty = [0.0] * self.register_file.num_banks
        seen_any = False
        for other, freq in partners:
            preg = assignment.get(other)
            if preg is None:
                continue
            penalty[self.register_file.bank_of(preg)] += freq
            seen_any = True
        if not seen_any:
            return self._all
        bank_order = sorted(
            range(self.register_file.num_banks), key=lambda b: (penalty[b], b)
        )
        ordered: list[PhysicalRegister] = []
        for bank in bank_order:
            ordered.extend(self._by_bank[bank])
        return ordered
