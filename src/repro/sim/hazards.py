"""The bank-conflict rule every machine model counts stalls with.

Two hazards cost cycles on the paper's register files:

* **bank conflicts** (§II-A) — a bank serves ``P`` reads per cycle, so a
  read stage that needs ``N`` reads from one bank takes ``ceil(N / P)``
  waves, and every wave past the first stalls one cycle.  The in-order
  models read one instruction at a time through single-ported banks
  (``P = 1``: the paper's N-1 penalty), the DSA bundle check reads a
  whole bundle with ``P = 1``, and the out-of-order read stage reads an
  issue group with ``P = read_ports``;
* **subgroup misalignment** (§III-C) — an arithmetic instruction whose
  operands span ``S`` subgroups of the DSA file pays ``S - 1`` routing
  cycles.  A flat banked file decodes every register to subgroup 0, so
  it never pays.

:func:`bank_waves` and :func:`operand_subgroups` are the two rules;
every conflict count and every profiler label in :mod:`repro.sim` is
derived from them.
"""

from __future__ import annotations

from typing import NamedTuple

from ..banks.register_file import RegisterFile
from ..ir.instruction import Instruction, OpKind
from ..ir.types import FP, PhysicalRegister, RegClass


def bank_waves(
    reads: list, register_file: RegisterFile, ports: int = 1
) -> tuple[tuple[int, list[tuple[int, PhysicalRegister]], int], ...]:
    """Queue a list of ``(owner, register)`` reads per bank, in order.

    Returns ``(bank, queue, extra_waves)`` in bank order for every bank
    whose queue takes more than one wave of *ports* reads, where
    ``extra_waves = ceil(len(queue) / ports) - 1``.
    """
    if len(reads) <= ports:
        return ()
    by_bank: dict[int, list[tuple[int, PhysicalRegister]]] = {}
    for read in reads:
        by_bank.setdefault(register_file.bank_of(read[1]), []).append(read)
    return tuple([
        (bank, queue, (len(queue) - 1) // ports)
        for bank, queue in sorted(by_bank.items())
        if len(queue) > ports
    ])


def operand_subgroups(
    instr: Instruction, register_file: RegisterFile, regclass: RegClass | None = FP
) -> tuple[int, ...]:
    """Sorted distinct subgroups of an arithmetic instruction's operands.

    Reads and definitions both count: the 1-1 bank-to-ALU datapath routes
    the result back too.  Copies, loads and stores move data freely
    between subgroups (copies are how the compiler changes a value's
    displacement), so they have none.
    """
    if instr.kind is not OpKind.ARITH:
        return ()
    defs = [
        d for d in instr.defs
        if isinstance(d, PhysicalRegister) and d.regclass.bankable
        and (regclass is None or d.regclass == regclass)
    ]
    regs = (*_physical_reads(instr, regclass), *defs)
    return tuple(sorted({register_file.subgroup_of(r) for r in regs}))


def reg_names(reads) -> str:
    """``$fp0,$fp2`` for ``(owner, register)`` reads."""
    return ",".join(f"${r.regclass.name}{r.index}" for _, r in reads)


def _physical_reads(
    instr: Instruction, regclass: RegClass | None
) -> tuple[PhysicalRegister, ...]:
    reads = instr.bankable_reads(regclass)
    if all(isinstance(r, PhysicalRegister) for r in reads):
        return reads
    return tuple(r for r in reads if isinstance(r, PhysicalRegister))


class Hazards(NamedTuple):
    """One instruction's hazards when it reads alone through ``P = 1``."""

    #: Distinct bankable physical-register reads, in operand order.
    reads: tuple[PhysicalRegister, ...]
    #: :func:`bank_waves` over :attr:`reads`.
    banks: tuple
    #: :func:`operand_subgroups`.
    subgroups: tuple[int, ...]
    #: Serialization cycles: N-1 per bank supplying N reads.
    conflicts: int
    #: Routing cycles: subgroups beyond the first.
    violations: int

    def sites(self) -> list[tuple[str, int]]:
        """Profiler ``(label, events)`` pairs summing to ``conflicts +
        violations``: ``bank0($fp0,$fp1)`` per serialized bank, then
        ``align(sg0|sg2)`` last when the operands are misaligned."""
        sites = [
            (f"bank{bank}({reg_names(queue)})", extra)
            for bank, queue, extra in self.banks
        ]
        if self.violations:
            label = "|".join(f"sg{s}" for s in self.subgroups)
            sites.append((f"align({label})", self.violations))
        return sites


def instruction_hazards(
    instr: Instruction, register_file: RegisterFile, regclass: RegClass | None = FP
) -> Hazards:
    """The rule applied to one instruction, kept in its
    :meth:`~repro.ir.instruction.Instruction.memo`."""
    memo = instr.memo()
    key = (register_file, regclass)
    hazards = memo.get(key)
    if hazards is None:
        reads = _physical_reads(instr, regclass)
        banks = bank_waves([(0, r) for r in reads], register_file)
        subgroups = operand_subgroups(instr, register_file, regclass)
        hazards = memo[key] = Hazards(
            reads, banks, subgroups,
            sum(extra for _, _, extra in banks), max(len(subgroups) - 1, 0),
        )
    return hazards
