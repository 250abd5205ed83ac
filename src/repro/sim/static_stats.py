"""Static bank-conflict statistics (the paper's compile-time LLVM pass).

Counts, over an *allocated* function (physical register operands):

* **conflict-relevant** instructions — read >= 2 distinct bankable
  registers (only these can ever conflict);
* **static bank conflicts** — per instruction, each register bank
  supplying N >= 2 of the read operands contributes N-1 conflicts (the
  hardware serializes N same-bank reads into N accesses);
* on a bank-subgroup file, **subgroup violations** — per instruction, the
  number of distinct operand subgroups beyond the first.

A program is *conflict-free* when it is conflict-relevant but its total
conflict count is zero — the categories of Fig. 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..banks.register_file import BankSubgroupRegisterFile, RegisterFile
from ..ir.function import Function, Module
from ..ir.instruction import Instruction, OpKind
from ..ir.loops import LoopInfo
from ..ir.types import FP, PhysicalRegister, RegClass


@dataclass
class StaticStats:
    """Compile-time conflict statistics of one function (or module)."""

    instructions: int = 0
    conflict_relevant: int = 0
    conflicting_instructions: int = 0
    bank_conflicts: int = 0
    subgroup_violations: int = 0
    weighted_conflicts: float = 0.0

    @property
    def conflicts(self) -> int:
        """Total hazards: bank conflicts plus alignment violations."""
        return self.bank_conflicts + self.subgroup_violations

    @property
    def is_conflict_relevant(self) -> bool:
        return self.conflict_relevant > 0

    @property
    def is_conflict_free(self) -> bool:
        """Conflict-relevant but conflict-less (Fig. 1's category)."""
        return self.is_conflict_relevant and self.conflicts == 0

    def merge(self, other: "StaticStats") -> "StaticStats":
        return StaticStats(
            instructions=self.instructions + other.instructions,
            conflict_relevant=self.conflict_relevant + other.conflict_relevant,
            conflicting_instructions=(
                self.conflicting_instructions + other.conflicting_instructions
            ),
            bank_conflicts=self.bank_conflicts + other.bank_conflicts,
            subgroup_violations=self.subgroup_violations + other.subgroup_violations,
            weighted_conflicts=self.weighted_conflicts + other.weighted_conflicts,
        )


def instruction_bank_conflicts(
    instr: Instruction,
    register_file: RegisterFile,
    regclass: RegClass | None = FP,
) -> int:
    """N-1 conflicts per bank supplying N of the instruction's reads."""
    reads = [
        r for r in instr.bankable_reads(regclass) if isinstance(r, PhysicalRegister)
    ]
    if len(reads) < 2:
        return 0
    by_bank = Counter(register_file.bank_of(r) for r in reads)
    return sum(count - 1 for count in by_bank.values() if count >= 2)


def instruction_subgroup_violations(
    instr: Instruction,
    register_file: BankSubgroupRegisterFile,
    regclass: RegClass | None = FP,
) -> int:
    """Distinct operand subgroups beyond the first (alignment hazards).

    Only vector *arithmetic* needs alignment (the 1-1 bank-to-ALU
    datapath); copies, loads, and stores move data freely between
    subgroups — copies are precisely how the compiler changes a value's
    displacement.
    """
    if instr.kind is not OpKind.ARITH:
        return 0
    regs = [
        r for r in instr.bankable_reads(regclass) if isinstance(r, PhysicalRegister)
    ]
    regs += [d for d in instr.reg_defs() if isinstance(d, PhysicalRegister)
             and d.regclass.bankable
             and (regclass is None or d.regclass == regclass)]
    if len(regs) < 2:
        return 0
    subgroups = {register_file.subgroup_of(r) for r in regs}
    return len(subgroups) - 1


def instruction_conflict_details(
    instr: Instruction,
    register_file: RegisterFile,
    regclass: RegClass | None = FP,
) -> list[tuple[str, int]]:
    """Per-hazard ``(detail, events)`` pairs for the hotspot profiler.

    Deliberately mirrors :func:`instruction_bank_conflicts` and
    :func:`instruction_subgroup_violations` — the summed event counts are
    always equal to those aggregates, so per-site profiles reconcile with
    the program totals.  Detail strings name the hardware resource:
    ``bank3($fp1,$fp9)`` for N-1 serialized reads of one bank,
    ``align(sg0|sg2)`` for a misaligned subgroup set.
    """
    details: list[tuple[str, int]] = []
    reads = [
        r for r in instr.bankable_reads(regclass) if isinstance(r, PhysicalRegister)
    ]
    if len(reads) >= 2:
        by_bank: dict[int, list[PhysicalRegister]] = {}
        for reg in reads:
            by_bank.setdefault(register_file.bank_of(reg), []).append(reg)
        for bank in sorted(by_bank):
            regs = by_bank[bank]
            if len(regs) >= 2:
                names = ",".join(f"${r.regclass.name}{r.index}" for r in regs)
                details.append((f"bank{bank}({names})", len(regs) - 1))
    if isinstance(register_file, BankSubgroupRegisterFile):
        violations = instruction_subgroup_violations(instr, register_file, regclass)
        if violations:
            regs = [
                r for r in instr.bankable_reads(regclass)
                if isinstance(r, PhysicalRegister)
            ]
            regs += [
                d for d in instr.reg_defs() if isinstance(d, PhysicalRegister)
                and d.regclass.bankable
                and (regclass is None or d.regclass == regclass)
            ]
            subgroups = sorted({register_file.subgroup_of(r) for r in regs})
            detail = "align(" + "|".join(f"sg{s}" for s in subgroups) + ")"
            details.append((detail, violations))
    return details


def analyze_static(
    function: Function,
    register_file: RegisterFile,
    regclass: RegClass | None = FP,
    loop_info: LoopInfo | None = None,
    am=None,
) -> StaticStats:
    """Collect :class:`StaticStats` over an allocated *function*.

    Block frequencies come from *loop_info*, or the analysis cache *am* a
    pipeline run left behind (allocation preserves the CFG-level
    analyses), or a fresh computation — in that order.
    """
    from ..obs import TRACER

    is_dsa = isinstance(register_file, BankSubgroupRegisterFile)
    with TRACER.span(
        "static-stats", category="measure", function=function.name
    ) as span:
        if loop_info is None:
            if am is not None:
                from ..passes import LoopInfoAnalysis

                loop_info = am.get(LoopInfoAnalysis)
            else:
                loop_info = LoopInfo.build(function)
        stats = StaticStats()
        for block in function.blocks:
            freq = loop_info.block_frequency(block.label)
            for instr in block:
                stats.instructions += 1
                if instr.is_conflict_relevant(regclass):
                    stats.conflict_relevant += 1
                conflicts = instruction_bank_conflicts(instr, register_file, regclass)
                violations = 0
                if is_dsa:
                    violations = instruction_subgroup_violations(
                        instr, register_file, regclass
                    )
                if conflicts or violations:
                    stats.conflicting_instructions += 1
                    stats.weighted_conflicts += (conflicts + violations) * freq
                stats.bank_conflicts += conflicts
                stats.subgroup_violations += violations
        span.note(**{
            "sim.static_bank_conflicts": stats.bank_conflicts,
            "sim.static_subgroup_violations": stats.subgroup_violations,
        })
    return stats


def analyze_module_static(
    module: Module,
    register_file: RegisterFile,
    regclass: RegClass | None = FP,
) -> StaticStats:
    """Aggregate static stats over all functions of *module*."""
    total = StaticStats()
    for function in module.functions:
        total = total.merge(analyze_static(function, register_file, regclass))
    return total


def count_conflict_relevant(
    function: Function, regclass: RegClass | None = FP
) -> int:
    """Pre-allocation conflict-relevant instruction count (Table I's
    "Reles"), computable on virtual-register IR."""
    return sum(
        1
        for _, instr in function.instructions()
        if instr.is_conflict_relevant(regclass)
    )
