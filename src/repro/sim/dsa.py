"""DSA machine model: VLIW bundling and cycle estimation (Table VII).

The custom DSA of §III-C executes VLIW bundles against a 2x4
bank-subgroup register file with a direct 1-1 bank-to-ALU datapath:

* two instructions can share a bundle only if their combined register
  reads touch each bank at most once (the "VLIW bundle constraint" that
  the paper notes hurts `dw-conv2d` and `tr18987`), and neither depends
  on the other;
* a bundle costs one issue cycle;
* each same-bank read pair inside one instruction costs one extra
  serialization cycle (the hardware arbiter's N-1 penalty), and each
  subgroup misalignment costs one extra routing cycle;
* loads/stores (including spill code) carry their extra latency.

Cycle totals fold per-block costs through the expected block frequencies,
so loop trip counts and branch probabilities are respected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..banks.register_file import BankSubgroupRegisterFile, RegisterFile
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction, OpKind
from ..ir.types import FP, PhysicalRegister, RegClass
from .dynamic import expected_block_frequencies
from .static_stats import instruction_bank_conflicts, instruction_subgroup_violations


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

    def merge(self, other: "DsaCycleReport") -> "DsaCycleReport":
        return DsaCycleReport(
            cycles=self.cycles + other.cycles,
            bundles=self.bundles + other.bundles,
            issue_cycles=self.issue_cycles + other.issue_cycles,
            conflict_penalty_cycles=(
                self.conflict_penalty_cycles + other.conflict_penalty_cycles
            ),
            alignment_penalty_cycles=(
                self.alignment_penalty_cycles + other.alignment_penalty_cycles
            ),
            memory_penalty_cycles=(
                self.memory_penalty_cycles + other.memory_penalty_cycles
            ),
            copy_instructions=self.copy_instructions + other.copy_instructions,
            spill_instructions=self.spill_instructions + other.spill_instructions,
        )


@dataclass
class DsaMachine:
    """The DSA cycle model.

    Attributes:
        register_file: Normally a :class:`BankSubgroupRegisterFile`; a
            plain banked file models the "2/4/8/16-non" hardware points of
            Table VI/VII (no alignment constraint, no alignment penalty).
        issue_width: Instructions per VLIW bundle.
    """

    register_file: RegisterFile
    regclass: RegClass | None = FP
    issue_width: int = 2

    # ------------------------------------------------------------------
    def bundle_block(self, block: BasicBlock) -> list[list[Instruction]]:
        """Greedy in-order bundling under the same-bank constraint."""
        bundles: list[list[Instruction]] = []
        current: list[Instruction] = []
        current_banks: Counter = Counter()
        current_defs: set = set()

        def flush() -> None:
            nonlocal current, current_banks, current_defs
            if current:
                bundles.append(current)
            current = []
            current_banks = Counter()
            current_defs = set()

        for instr in block:
            if instr.is_terminator:
                flush()
                bundles.append([instr])
                continue
            banks = Counter(
                self.register_file.bank_of(r)
                for r in instr.bankable_reads(self.regclass)
                if isinstance(r, PhysicalRegister)
            )
            depends = any(
                use in current_defs for use in instr.reg_uses()
            ) or any(d in current_defs for d in instr.reg_defs())
            bank_clash = any(
                current_banks.get(bank, 0) + count > 1
                for bank, count in banks.items()
            )
            if current and (len(current) >= self.issue_width or depends or bank_clash):
                flush()
            current.append(instr)
            current_banks.update(banks)
            current_defs.update(instr.reg_defs())
        flush()
        return bundles

    def block_cycles(self, block: BasicBlock) -> DsaCycleReport:
        """Cycle cost of one execution of *block*."""
        is_dsa = isinstance(self.register_file, BankSubgroupRegisterFile)
        report = DsaCycleReport()
        bundles = self.bundle_block(block)
        report.bundles = len(bundles)
        report.issue_cycles = float(len(bundles))
        for instr in block:
            conflicts = instruction_bank_conflicts(
                instr, self.register_file, self.regclass
            )
            report.conflict_penalty_cycles += conflicts
            if is_dsa:
                report.alignment_penalty_cycles += instruction_subgroup_violations(
                    instr, self.register_file, self.regclass
                )
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

    def _profile_block(
        self, function_name: str, block: BasicBlock,
        paths: dict[str, tuple[str, ...]], freq: float, rows: list,
    ) -> None:
        """Attribute *block*'s conflict/alignment stall cycles to sites.

        Every hazard event in the cycle model costs exactly one cycle, so
        per-site cycles are ``events * freq`` — summing them over the
        function reconciles with ``conflict_penalty_cycles +
        alignment_penalty_cycles`` of :meth:`run`.
        """
        from .static_stats import instruction_conflict_details

        loops = paths.get(block.label, ())
        for index, instr in enumerate(block):
            for detail, events in instruction_conflict_details(
                instr, self.register_file, self.regclass
            ):
                rows.append((
                    function_name, loops, block.label, index, instr.opcode,
                    detail, events * freq, events * freq, freq,
                ))

    def run(self, function: Function, am=None) -> DsaCycleReport:
        """Frequency-weighted cycle total over the whole function.

        With *am* given, block frequencies are solved over the cached CFG
        (still valid after allocation, which preserves block structure).
        """
        from ..obs import TRACER

        with TRACER.span(
            "dsa-cycles", category="measure", function=function.name
        ) as span:
            cfg = None
            if am is not None:
                from ..passes import CFGAnalysis

                cfg = am.get(CFGAnalysis)
            frequencies = expected_block_frequencies(function, cfg)
            total = DsaCycleReport()
            paths = rows = None
            if TRACER.wants("profile"):
                from ..obs import loop_paths

                paths, rows = loop_paths(function), []
            for block in function.blocks:
                freq = frequencies.get(block.label, 0.0)
                if freq <= 0.0:
                    continue
                if paths is not None:
                    self._profile_block(function.name, block, paths, freq, rows)
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
            if rows:
                TRACER.fact("sites", rows=rows)
            span.note(**{"sim.dsa_cycles": total.cycles})
        return total
