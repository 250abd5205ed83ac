"""Register and bank pressure tracking.

The *bank pressure count* is the heart of the PresCount heuristic
(§III-B): for a bank, it is the maximum number of simultaneously live
registers already assigned to that bank.  When several banks are equally
conflict-free for a node, the assigner picks the bank whose pressure count
grows the least — keeping every per-bank sub-RIG colorable and avoiding
the "unbalanced bank assignment" failure of §II-B.

:class:`BankPressureTracker` keeps one per-slot *counts array* per bank
(``counts[s]`` is the number of the bank's live segments covering slot
*s*) and answers two queries:

* ``pressure(bank)`` — the current max overlap in the bank;
* ``pressure_if_assigned(bank, interval)`` — the max overlap the bank
  would have if *interval* were added (without mutating state): a slice
  max over the interval's coverage, plus one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import VirtualRegister
from .intervals import LiveInterval


@dataclass
class _BankState:
    """Per-slot overlap counts of one bank, grown on demand."""

    max_pressure: int = 0
    members: set[VirtualRegister] = field(default_factory=set)
    counts: list[int] = field(default_factory=list)

    def add(self, interval: LiveInterval) -> None:
        counts = self.counts
        need = interval.segments[-1].end if interval.segments else 0
        if need > len(counts):
            counts.extend([0] * (need - len(counts)))
        peak = self.max_pressure
        for seg in interval.segments:
            for s in range(seg.start, seg.end):
                c = counts[s] + 1
                counts[s] = c
                if c > peak:
                    peak = c
        self.max_pressure = peak
        self.members.add(interval.reg)

    def max_active_within(self, interval: LiveInterval) -> int:
        """Max overlap restricted to slots covered by *interval*."""
        counts = self.counts
        size = len(counts)
        best = 0
        for seg in interval.segments:
            hi = seg.end if seg.end < size else size
            if seg.start < hi:
                m = max(counts[seg.start: hi])
                if m > best:
                    best = m
        return best


@dataclass
class BankPressureTracker:
    """Per-bank live-range overlap counts for PresCount's heuristic."""

    num_banks: int
    banks: list[_BankState] = field(default_factory=list)

    def __post_init__(self):
        if self.num_banks < 1:
            raise ValueError("need at least one bank")
        if not self.banks:
            self.banks = [_BankState() for __ in range(self.num_banks)]

    # ------------------------------------------------------------------
    def assign(self, bank: int, interval: LiveInterval) -> None:
        """Record that *interval*'s register is now assigned to *bank*."""
        self.banks[bank].add(interval)

    def pressure(self, bank: int) -> int:
        """Current bank pressure count of *bank*."""
        return self.banks[bank].max_pressure

    def pressure_if_assigned(self, bank: int, interval: LiveInterval) -> int:
        """Bank pressure count *bank* would reach after adding *interval*."""
        state = self.banks[bank]
        return max(state.max_pressure, state.max_active_within(interval) + 1)

    def added_pressure(self, bank: int, interval: LiveInterval) -> int:
        """How much the bank's pressure count would grow (>= 0)."""
        return self.pressure_if_assigned(bank, interval) - self.banks[bank].max_pressure

    def members(self, bank: int) -> set[VirtualRegister]:
        return set(self.banks[bank].members)

    def occupancy(self, bank: int) -> int:
        """Number of registers assigned to *bank* (for free-reg balancing)."""
        return len(self.banks[bank].members)

    def least_pressured_banks(self, interval: LiveInterval) -> list[int]:
        """All banks sorted by resulting pressure, then occupancy, then id."""
        return sorted(
            range(self.num_banks),
            key=lambda b: (
                self.pressure_if_assigned(b, interval),
                self.occupancy(b),
                b,
            ),
        )
