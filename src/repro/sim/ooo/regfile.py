"""Multi-ported banked register-file read stage.

Each bank of the underlying :class:`~repro.banks.register_file` exposes
``ports_per_bank`` read ports per cycle.  An issue group's operand reads
go through the bank rule of :mod:`repro.sim.hazards` with
``P = ports_per_bank``: each bank serves its reads in *waves* of ``P``,
oldest instruction first, and every wave past the first holds the read
stage one extra cycle.  The group's total conflict cost is therefore::

    sum over banks of (ceil(reads_in_bank / ports) - 1)

With one read port and a one-instruction group this is the paper's N-1
serialization penalty that the in-order models charge, which is what
makes the degenerate machine configuration reproduce the in-order
``DsaMachine`` conflict cycle counts bit-identically.

Arbitration is *fair by age*: reads are queued in (instruction program
order, operand order), so the oldest instruction's reads always land in
the earliest waves.  Each extra cycle goes to the owner of each
recirculation wave's first read: with one port, the group ``[(0,
($fp0, $fp2, $fp4)), (1, ($fp6,))]`` reading one bank four times
charges instruction 0 two cycles and instruction 1 one.  The attributed
cycles always sum back to the group total, keeping the hotspot profiler
reconciled with the cycle model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ...banks.register_file import RegisterFile
from ...ir.types import PhysicalRegister
from ..hazards import bank_waves, reg_names


@dataclass
class ReadArbitration:
    """Outcome of arbitrating one issue group's reads."""

    #: Extra read-stage cycles for the whole group (beyond the base 1).
    extra_cycles: int = 0
    #: ``(index, detail, events)`` profiler sites: *index*'s reads of a
    #: bank owned the first read of *events* recirculation waves.
    sites: list[tuple[int, str, int]] = field(default_factory=list)

    @property
    def per_instruction(self) -> dict[int, int]:
        """Extra cycles attributed per instruction index; sums to
        :attr:`extra_cycles`."""
        charged: Counter = Counter()
        for index, _, events in self.sites:
            charged[index] += events
        return dict(charged)


@dataclass(frozen=True)
class ReadPortArbiter:
    """Per-bank read-port scheduler of the OoO read stage."""

    register_file: RegisterFile
    ports_per_bank: int = 1

    def __post_init__(self):
        if self.ports_per_bank < 1:
            raise ValueError(
                f"ports_per_bank must be positive, got {self.ports_per_bank}"
            )

    def arbitrate(
        self, group: list[tuple[int, tuple[PhysicalRegister, ...]]]
    ) -> ReadArbitration:
        """Schedule the reads of one issue group.

        *group* is ``[(instruction_index, bankable_reads), ...]`` in
        program order; each instruction's reads are already deduplicated
        (a repeated read of one register is one port access).
        """
        result = ReadArbitration()
        ports = self.ports_per_bank
        reads = [(index, reg) for index, regs in group for reg in regs]
        for bank, queue, extra in bank_waves(reads, self.register_file, ports):
            result.extra_cycles += extra
            owners = Counter(queue[wave * ports][0] for wave in range(1, extra + 1))
            for owner, events in owners.items():
                names = reg_names(read for read in queue if read[0] == owner)
                result.sites.append(
                    (owner, f"port(bank{bank}:{names})/{ports}", events)
                )
        return result
