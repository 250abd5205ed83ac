"""DSA machine model: VLIW bundling and cycle estimation (Table VII).

The custom DSA of §III-C executes VLIW bundles against a 2x4
bank-subgroup register file with a direct 1-1 bank-to-ALU datapath:

* two instructions can share a bundle only if their combined register
  reads add no wave to the bundle's single-ported read (the "VLIW bundle
  constraint" that the paper notes hurts `dw-conv2d` and `tr18987`), and
  neither depends on the other;
* a bundle costs one issue cycle;
* each same-bank read pair inside one instruction costs one extra
  serialization cycle (the hardware arbiter's N-1 penalty), and each
  subgroup misalignment costs one extra routing cycle;
* loads/stores (including spill code) carry their extra latency.

Both the bundle check and the penalties are the rule of
:mod:`repro.sim.hazards` with one read port.  Cycle totals fold per-block
costs through the expected block frequencies, so loop trip counts and
branch probabilities are respected.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..banks.register_file import RegisterFile
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction, OpKind
from ..ir.types import FP, RegClass
from ..obs import TRACER
from .dynamic import Sites, executed_blocks
from .hazards import bank_waves, instruction_hazards

#: Instructions per VLIW bundle.
ISSUE_WIDTH = 2


@dataclass
class DsaCycleReport:
    """Cycle breakdown of one function on the DSA model."""

    cycles: float = 0.0
    bundles: int = 0
    issue_cycles: float = 0.0
    conflict_penalty_cycles: float = 0.0
    alignment_penalty_cycles: float = 0.0
    memory_penalty_cycles: float = 0.0
    copy_instructions: int = 0
    spill_instructions: int = 0


@dataclass
class DsaMachine:
    """The DSA cycle model.

    Attributes:
        register_file: Normally a :class:`BankSubgroupRegisterFile`; a
            plain banked file models the "2/4/8/16-non" hardware points of
            Table VI/VII (every register in subgroup 0, so no alignment
            penalty).
    """

    register_file: RegisterFile
    regclass: RegClass | None = FP

    # ------------------------------------------------------------------
    def bundle_block(self, block: BasicBlock) -> list[list[Instruction]]:
        """Greedy in-order bundling: an instruction joins the open bundle
        unless the bundle is full, it depends on a member, or its reads
        add a wave to the bundle's combined read."""
        bundles: list[list[Instruction]] = []
        current: list[Instruction] = []
        for instr in block:
            if instr.is_terminator:
                if current:
                    bundles.append(current)
                bundles.append([instr])
                current = []
                continue
            hazards = instruction_hazards(instr, self.register_file, self.regclass)
            own = [(0, r) for r in hazards.reads]
            if (
                current
                and len(current) < ISSUE_WIDTH
                and not any(use in defs for use in instr.reg_uses())
                and not any(d in defs for d in instr.reg_defs())
                and sum(
                    extra for _, _, extra in bank_waves(reads + own, self.register_file)
                ) == waves
            ):
                current.append(instr)
                reads += own
            else:
                if current:
                    bundles.append(current)
                current, reads, waves, defs = [instr], own, hazards.conflicts, set()
            defs.update(instr.reg_defs())
        if current:
            bundles.append(current)
        return bundles

    def block_cycles(self, block: BasicBlock) -> DsaCycleReport:
        """Cycle cost of one execution of *block*."""
        report = DsaCycleReport()
        bundles = self.bundle_block(block)
        report.bundles = len(bundles)
        report.issue_cycles = float(len(bundles))
        for instr in block:
            hazards = instruction_hazards(instr, self.register_file, self.regclass)
            report.conflict_penalty_cycles += hazards.conflicts
            report.alignment_penalty_cycles += hazards.violations
            if instr.kind in (OpKind.LOAD, OpKind.STORE):
                report.memory_penalty_cycles += instr.latency - 1
                if instr.attrs.get("spill"):
                    report.spill_instructions += 1
            if instr.kind is OpKind.COPY:
                report.copy_instructions += 1
        report.cycles = (
            report.issue_cycles
            + report.conflict_penalty_cycles
            + report.alignment_penalty_cycles
            + report.memory_penalty_cycles
        )
        return report

    def run(self, function: Function, am=None) -> DsaCycleReport:
        """Frequency-weighted cycle total over the whole function.

        With *am* given, block frequencies are the manager's cached flow
        solve (still valid after allocation, which preserves block
        structure).  Each hazard event costs one cycle, so the profile
        view's per-site cycles reconcile with ``conflict_penalty_cycles +
        alignment_penalty_cycles``.
        """
        with TRACER.span(
            "dsa-cycles", category="measure", function=function.name
        ) as span:
            total = DsaCycleReport()
            sites = Sites(function)
            for block, freq in executed_blocks(function, am):
                sites.add_block(block, freq, self.register_file, self.regclass)
                per_exec = self.block_cycles(block)
                total.cycles += per_exec.cycles * freq
                total.bundles += per_exec.bundles
                total.issue_cycles += per_exec.issue_cycles * freq
                total.conflict_penalty_cycles += per_exec.conflict_penalty_cycles * freq
                total.alignment_penalty_cycles += (
                    per_exec.alignment_penalty_cycles * freq
                )
                total.memory_penalty_cycles += per_exec.memory_penalty_cycles * freq
                total.copy_instructions += round(per_exec.copy_instructions * freq)
                total.spill_instructions += round(per_exec.spill_instructions * freq)
            sites.emit()
            span.note(**{"sim.dsa_cycles": total.cycles})
        return total
