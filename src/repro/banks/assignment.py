"""Bank assignment results.

A :class:`BankAssignment` is the output of the RCG-based bank assignment
phase: a mapping from virtual registers to bank numbers, plus bookkeeping
(which registers were uncolorable and carry an expected residual conflict
cost).  The enhanced register allocator consumes it as an ordering
constraint on the physical registers it tries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import VirtualRegister


@dataclass
class BankAssignment:
    """vreg -> bank decisions from a bank assigner.

    Attributes:
        num_banks: Bank count of the target register file.
        banks: The assignment proper.
        uncolorable: Registers that received a conflicting color (no bank
            was conflict-free when they were processed); their conflicts
            are expected residual cost, not allocator error.
        residual_cost: Summed Cost_I of RCG edges left monochromatic.
        strict: When True the banked-file policy offers only the
            register's own bank (``PipelineConfig.strict_banks``, off by
            default); when False the bank is a strong preference and the
            allocator may fall back to another bank instead of spilling.
            The DSA's policy orders the whole file either way.
    """

    num_banks: int
    banks: dict[VirtualRegister, int] = field(default_factory=dict)
    uncolorable: set[VirtualRegister] = field(default_factory=set)
    residual_cost: float = 0.0
    strict: bool = False

    def bank_of(self, reg: VirtualRegister) -> int | None:
        return self.banks.get(reg)

    def assign(self, reg: VirtualRegister, bank: int) -> None:
        if not 0 <= bank < self.num_banks:
            raise ValueError(f"bank {bank} out of range [0, {self.num_banks})")
        self.banks[reg] = bank

    def bank_histogram(self) -> list[int]:
        """Number of registers assigned to each bank (balance diagnostic)."""
        histogram = [0] * self.num_banks
        for bank in self.banks.values():
            histogram[bank] += 1
        return histogram

    def __contains__(self, reg: VirtualRegister) -> bool:
        return reg in self.banks

    def __len__(self) -> int:
        return len(self.banks)


@dataclass
class SubgroupAssignment:
    """vreg -> subgroup displacement decisions (Algorithm 2 bookkeeping).

    ``group_displacements`` maps an SDG component id to its chosen
    displacement; ``displacement_of`` resolves individual registers
    through their component.
    """

    num_subgroups: int
    displacements: dict[VirtualRegister, int] = field(default_factory=dict)
    #: displacement -> total registers steered there (MinUsed bookkeeping).
    usage: dict[int, int] = field(default_factory=dict)

    def displacement_of(self, reg: VirtualRegister) -> int | None:
        return self.displacements.get(reg)

    def assign(self, reg: VirtualRegister, displacement: int) -> None:
        if not 0 <= displacement < self.num_subgroups:
            raise ValueError(
                f"displacement {displacement} out of range [0, {self.num_subgroups})"
            )
        self.displacements[reg] = displacement
        self.usage[displacement] = self.usage.get(displacement, 0) + 1

    def min_used(self) -> int:
        """``MinUsed(ALLSUBGROUPS)``: the least-utilized displacement."""
        return min(range(self.num_subgroups), key=lambda d: (self.usage.get(d, 0), d))

    def __contains__(self, reg: VirtualRegister) -> bool:
        return reg in self.displacements

    def __len__(self) -> int:
        return len(self.displacements)
