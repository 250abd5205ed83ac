"""Allocator foundations: results, physical-register bookkeeping, and the
policy hook through which bank strategies (non / bcr / bpc) steer the
greedy allocator.

The paper's three compared register allocation methods differ *only* in
how candidate physical registers are ordered and filtered for each virtual
register (plus, for PresCount, a pre-pass that computes the bank
assignment).  Encoding that as an :class:`AllocationPolicy` keeps one
allocator implementation for all methods — mirroring how PresCount is
integrated into LLVM's single greedy allocator rather than replacing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from ..banks.register_file import RegisterFile
from ..ir.function import Function
from ..ir.types import PhysicalRegister, VirtualRegister
from ..analysis.intervals import LiveInterval


@dataclass
class AllocationResult:
    """Outcome of register allocation for one function.

    Attributes:
        function: The rewritten function (vregs replaced by physical
            registers, spill code materialized).
        assignment: Final vreg -> physreg map, including vregs created by
            splitting/spilling.
        spilled: Original vregs whose live ranges were spilled to memory.
        spill_instructions: Reloads + stores inserted for spills.
        copies_inserted: Copy instructions added by live-range splitting
            and SDG subgroup splitting.
        copies_removed: Copies eliminated by coalescing.
        evictions: Number of evict-and-requeue events in the allocator.
    """

    function: Function
    assignment: dict[VirtualRegister, PhysicalRegister] = field(default_factory=dict)
    spilled: set[VirtualRegister] = field(default_factory=set)
    spill_instructions: int = 0
    copies_inserted: int = 0
    copies_removed: int = 0
    evictions: int = 0

    @property
    def spill_count(self) -> int:
        """Number of spilled live ranges (the paper's "spillings")."""
        return len(self.spilled)


class AllocationError(RuntimeError):
    """Raised when allocation cannot make progress (pathological input)."""


@dataclass
class PhysRegState:
    """Intervals currently assigned to one physical register.

    The state also keeps the union coverage bitmask of its intervals,
    turning the free-probe into one AND (``a.mask & b.mask`` is exactly
    :meth:`LiveInterval.overlaps`).  The XOR on removal is exact because
    assigned intervals on one physical register are always pairwise
    disjoint (``is_free_for`` gates every add, and eviction removes all
    conflicts before a new add), and interval segment sets never mutate
    while assigned.
    """

    preg: PhysicalRegister
    intervals: list[LiveInterval] = field(default_factory=list)
    mask: int = 0

    def conflicts_with(self, interval: LiveInterval) -> list[LiveInterval]:
        """Assigned intervals overlapping *interval*."""
        m = interval.mask
        if not self.mask & m:
            return []
        return [iv for iv in self.intervals if iv.mask & m]

    def is_free_for(self, interval: LiveInterval) -> bool:
        return not self.mask & interval.mask

    def add(self, interval: LiveInterval) -> None:
        self.intervals.append(interval)
        self.mask |= interval.mask

    def remove(self, interval: LiveInterval) -> None:
        self.intervals.remove(interval)
        self.mask ^= interval.mask


class AllocationPolicy(Protocol):
    """Hook deciding candidate order and constraints per virtual register.

    Implementations: :class:`repro.prescount.bcr.BcrPolicy`,
    :class:`repro.prescount.bank_assigner.PresCountPolicy`, and the
    default :class:`NaturalOrderPolicy` below ("non").  A policy may also
    define ``on_split(parent, children)``, which the allocator calls after
    a region split so split-generated registers inherit the parent's bank
    (Algorithm 2's first branch).
    """

    def setup(self, allocator: "AllocatorContext") -> None:
        """Called once before the first interval is dequeued."""

    def order(
        self, vreg: VirtualRegister, interval: LiveInterval
    ) -> Sequence[PhysicalRegister]:
        """Candidate physical registers for *vreg*, most preferred first.

        Returning a subset makes the remaining registers unavailable to
        this vreg (strict constraints); returning a permutation of all
        registers expresses soft preferences.
        """
        ...


class AllocatorContext(Protocol):
    """What a policy may observe about the in-progress allocation."""

    function: Function
    register_file: RegisterFile

    def current_assignment(self) -> dict[VirtualRegister, PhysicalRegister]: ...


class NaturalOrderPolicy:
    """The "non" method: first-free physical register in index order.

    With an interleaved register file, index order alternates banks, so
    operand banks end up effectively arbitrary — reproducing the prevalent
    conflicts of Fig. 1.
    """

    def __init__(self):
        self._registers: list[PhysicalRegister] = []

    def setup(self, allocator: AllocatorContext) -> None:
        self._registers = allocator.register_file.registers()

    def order(
        self, vreg: VirtualRegister, interval: LiveInterval
    ) -> Sequence[PhysicalRegister]:
        return self._registers
