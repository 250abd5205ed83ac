"""Static bank-conflict statistics (the paper's compile-time LLVM pass).

Counts, over an *allocated* function (physical register operands):

* **conflict-relevant** instructions — read >= 2 distinct bankable
  registers (only these can ever conflict);
* **static bank conflicts** — per instruction, each register bank
  supplying N >= 2 of the read operands contributes N-1 conflicts (the
  hardware serializes N same-bank reads into N accesses);
* **subgroup violations** — per instruction, the number of distinct
  operand subgroups beyond the first (zero on a flat banked file).

Both come from the rule in :mod:`repro.sim.hazards`.  A program is
*conflict-free* when it is conflict-relevant but its total conflict count
is zero — the categories of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..banks.register_file import RegisterFile
from ..ir.function import Function
from ..ir.loops import LoopInfo
from ..ir.types import FP, RegClass
from ..obs import TRACER
from .hazards import instruction_hazards


@dataclass
class StaticStats:
    """Compile-time conflict statistics of one function."""

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
                hazards = instruction_hazards(instr, register_file, regclass)
                if hazards.conflicts or hazards.violations:
                    stats.conflicting_instructions += 1
                    stats.weighted_conflicts += (
                        hazards.conflicts + hazards.violations
                    ) * freq
                stats.bank_conflicts += hazards.conflicts
                stats.subgroup_violations += hazards.violations
        span.note(**{
            "sim.static_bank_conflicts": stats.bank_conflicts,
            "sim.static_subgroup_violations": stats.subgroup_violations,
        })
    return stats


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
