"""Register-file energy estimation.

The paper motivates compile-time conflict elimination with *energy* as
much as latency: "peak performance and performance per watt are both
crucial" (§I, citing GPUWattch), and the DSA drops its crossbar
specifically to cut power (§III-C).  This model attributes energy to the
register-file events an allocation controls:

* each register read/write costs one access (per-access energy scales
  mildly with bank count — bigger decoders/muxes per extra bank);
* each bank conflict costs an extra arbitration + buffered re-access;
* each subgroup violation costs an extra routing hop on the DSA;
* spill traffic pays the (much larger) memory-access energy.

Units are normalized to one single-bank register access = 1.0 energy
unit; the interesting outputs are *ratios* between allocation methods
and hardware points, not Joules.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..banks.register_file import RegisterFile
from ..ir.function import Function
from ..ir.instruction import OpKind
from ..ir.types import FP, PhysicalRegister, RegClass
from .dynamic import executed_blocks
from .hazards import instruction_hazards

#: Per-event energy, in units of one register access on a 1-bank file.
ACCESS_ENERGY = 1.0
#: Extra per-access cost per doubling of the bank count (decoder/mux).
BANK_SCALING = 0.05
#: A conflict re-arbitrates and re-reads through the operand buffer.
CONFLICT_ENERGY = 1.5
#: A subgroup misroute crosses the (simplified) inter-ALU network.
ALIGNMENT_ENERGY = 1.0
#: Spill traffic goes to memory: ~10x a register access (on-chip SRAM).
MEMORY_ENERGY = 10.0


@dataclass
class EnergyReport:
    """Frequency-weighted register-file energy of one function."""

    access_energy: float = 0.0
    conflict_energy: float = 0.0
    alignment_energy: float = 0.0
    spill_energy: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.access_energy
            + self.conflict_energy
            + self.alignment_energy
            + self.spill_energy
        )


def _per_access(register_file: RegisterFile) -> float:
    """Per-access energy, scaled by bank count (decode/mux overhead)."""
    doublings = max(0, register_file.num_banks.bit_length() - 1)
    return ACCESS_ENERGY * (1.0 + BANK_SCALING * doublings)


def estimate_energy(
    function: Function,
    register_file: RegisterFile,
    regclass: RegClass | None = FP,
) -> EnergyReport:
    """Frequency-weighted register-file energy of an allocated function."""
    per_access = _per_access(register_file)
    report = EnergyReport()
    for block, freq in executed_blocks(function):
        for instr in block:
            accesses = sum(
                1
                for reg in instr.regs()
                if isinstance(reg, PhysicalRegister)
                and (regclass is None or reg.regclass == regclass)
            )
            report.access_energy += accesses * per_access * freq
            hazards = instruction_hazards(instr, register_file, regclass)
            report.conflict_energy += hazards.conflicts * CONFLICT_ENERGY * freq
            report.alignment_energy += hazards.violations * ALIGNMENT_ENERGY * freq
            if instr.kind in (OpKind.LOAD, OpKind.STORE) and instr.attrs.get("spill"):
                report.spill_energy += MEMORY_ENERGY * freq
    return report
