"""Bank conflict cost estimation — Equations 1 and 2 of the paper.

``Cost_I`` of an instruction is the product of the trip counts of all its
enclosing loops (Eq. 1): a conflict in a hot inner loop costs its full
dynamic repetition, a conflict in straight-line code costs 1.

``Cost_R`` of a register sums ``Cost_I`` over the instructions that access
it (Eq. 2).  PresCount orders the RCG coloring work list by this value so
the hottest conflicts are resolved while colors are still plentiful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instruction import Instruction, OpKind
from ..ir.loops import LoopInfo
from ..ir.types import RegClass, Register, VirtualRegister


@dataclass
class ConflictCostModel:
    """Per-function conflict cost oracle.

    Attributes:
        function: The costed function.
        loop_info: Loop forest supplying trip counts.
        conflict_relevant_only: When True (default, the paper's model),
            ``Cost_R`` sums only over *conflict-relevant* instructions —
            the ones that can actually trigger a bank conflict.  When
            False, every access contributes (useful for the spill-weight
            reuse of the same machinery).
    """

    function: Function
    loop_info: LoopInfo
    regclass: RegClass | None = None
    conflict_relevant_only: bool = True
    _instr_cost: dict[int, float] = field(default_factory=dict)
    _reg_cost: dict[Register, float] = field(default_factory=dict)
    _access_cost: dict[Register, float] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        function: Function,
        loop_info: LoopInfo | None = None,
        regclass: RegClass | None = None,
        conflict_relevant_only: bool = True,
        flat=None,
    ) -> "ConflictCostModel":
        if loop_info is None:
            loop_info = LoopInfo.build(function)
        model = cls(function, loop_info, regclass, conflict_relevant_only)
        if flat is not None:
            model._compute_flat(flat)
        else:
            model._compute()
        return model

    def _compute_flat(self, flat) -> None:
        """Rid-array version of :meth:`_compute`.

        Per-register float accumulation follows the identical instruction
        walk order, so sums are bit-identical; the raised dicts are keyed
        in the same first-touch order as the object walk.
        """
        from ..ir.instruction import OpKind

        nregs = flat.num_regs
        access = [0.0] * nregs
        access_order: list[int] = []
        access_seen = [False] * nregs
        reg_cost = [0.0] * nregs
        cost_order: list[int] = []
        cost_seen = [False] * nregs
        ordinal_cost = [0.0] * len(flat.instrs)
        use_start, use_ids = flat.use_start, flat.use_ids
        def_start, def_ids = flat.def_start, flat.def_ids
        kinds = flat.kinds
        instrs = flat.instrs
        instr_cost = self._instr_cost
        arith = OpKind.ARITH
        block_frequency = self.loop_info.block_frequency
        for b, (bstart, bend) in enumerate(flat.block_bounds):
            freq = block_frequency(flat.block_labels[b])
            for i in range(bstart, bend):
                instr_cost[id(instrs[i])] = freq
                ordinal_cost[i] = freq
                u0, u1 = use_start[i], use_start[i + 1]
                d0, d1 = def_start[i], def_start[i + 1]
                for j in range(u0, u1):
                    rid = use_ids[j]
                    if not access_seen[rid]:
                        access_seen[rid] = True
                        access_order.append(rid)
                    access[rid] += freq
                for j in range(d0, d1):
                    rid = def_ids[j]
                    if not access_seen[rid]:
                        access_seen[rid] = True
                        access_order.append(rid)
                    access[rid] += freq
                bank = flat.bank_reads(i, self.regclass)
                relevant = kinds[i] is arith and len(bank) >= 2
                if self.conflict_relevant_only:
                    if not relevant:
                        continue
                    targets = bank
                else:
                    targets = [use_ids[j] for j in range(u0, u1)]
                    targets += [def_ids[j] for j in range(d0, d1)]
                for rid in targets:
                    if not cost_seen[rid]:
                        cost_seen[rid] = True
                        cost_order.append(rid)
                    reg_cost[rid] += freq
        regs = flat.regs
        self._access_cost = {regs[r]: access[r] for r in access_order}
        self._reg_cost = {regs[r]: reg_cost[r] for r in cost_order}
        # Let the conflict-graph build (sharing this flat) index Eq. 1
        # costs by ordinal instead of hashing instruction ids.
        self._flat = flat
        self._ordinal_cost = ordinal_cost

    def _compute(self) -> None:
        for block in self.function.blocks:
            freq = self.loop_info.block_frequency(block.label)
            for instr in block:
                self._instr_cost[id(instr)] = freq
                for reg in instr.regs():
                    self._access_cost[reg] = self._access_cost.get(reg, 0.0) + freq
                relevant = instr.is_conflict_relevant(self.regclass)
                if self.conflict_relevant_only and not relevant:
                    continue
                regs = (
                    instr.bankable_reads(self.regclass)
                    if self.conflict_relevant_only
                    else tuple(instr.regs())
                )
                for reg in regs:
                    self._reg_cost[reg] = self._reg_cost.get(reg, 0.0) + freq

    # ------------------------------------------------------------------
    def cost_of_instruction(self, instr: Instruction) -> float:
        """Eq. 1: the trip-count product of the instruction's loop nest."""
        return self._instr_cost[id(instr)]

    def cost_of_register(self, reg: Register) -> float:
        """Eq. 2: summed instruction costs over accesses of *reg*."""
        return self._reg_cost.get(reg, 0.0)

    def access_cost(self, reg: Register) -> float:
        """Frequency-weighted count of *all* accesses (uses and defs)."""
        return self._access_cost.get(reg, 0.0)

    def spill_weight(self, reg: VirtualRegister, interval_size: int) -> float:
        """LLVM-style spill weight: frequency-weighted access count divided
        by interval size, so long cold intervals spill first."""
        return self._access_cost.get(reg, 0.0) / max(1, interval_size)

    def total_cost(self) -> float:
        """Summed Eq. 2 costs over every costed register — the function's
        total *potential* conflict cost (the quantity the per-phase
        ``phase.cost_delta.*`` metrics difference)."""
        return sum(self._reg_cost.values())


def total_potential_cost(
    function: Function,
    loop_info: LoopInfo | None = None,
    regclass: RegClass | None = None,
) -> float:
    """:meth:`ConflictCostModel.total_cost` without building the model.

    The total is a straight fold — each conflict-relevant instruction
    contributes ``freq * len(bankable_reads)`` — so callers that only
    need the scalar (the per-phase ``phase.cost_delta.*`` metrics) skip
    the model's three per-register dicts entirely.  Callers that cost
    the same function repeatedly pass the *loop_info* they hold to also
    skip the loop analysis.
    """
    if loop_info is None:
        loop_info = LoopInfo.build(function)
    total = 0.0
    arith = OpKind.ARITH
    for block in function.blocks:
        freq = loop_info.block_frequency(block.label)
        for instr in block:
            # Inlined is_conflict_relevant so the (expensive) operand
            # scan runs once per instruction instead of twice.
            if instr.kind is arith:
                reads = len(instr.bankable_reads(regclass))
                if reads >= 2:
                    total += freq * reads
    return total

