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

from ..ir.flat import FlatFunction
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
        flat: The lowering the costs were walked over.
        instr_cost: Eq. 1 ``Cost_I`` per instruction ordinal of *flat*.
    """

    function: Function
    loop_info: LoopInfo
    regclass: RegClass | None = None
    conflict_relevant_only: bool = True
    flat: FlatFunction = field(init=False)
    instr_cost: list[float] = field(init=False, default_factory=list)
    _reg_cost: dict[Register, float] = field(default_factory=dict)
    _access_cost: dict[Register, float] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        function: Function,
        loop_info: LoopInfo | None = None,
        regclass: RegClass | None = None,
        conflict_relevant_only: bool = True,
        flat: FlatFunction | None = None,
    ) -> "ConflictCostModel":
        """Cost *function* over *flat* (lowered here when not given).

        Per-register float sums accumulate in instruction walk order, and
        the raised dicts are keyed in first-touch order of that walk.
        """
        if loop_info is None:
            loop_info = LoopInfo.build(function)
        if flat is None:
            flat = FlatFunction(function)
        model = cls(function, loop_info, regclass, conflict_relevant_only)
        model.flat = flat
        nregs = flat.num_regs
        access = [0.0] * nregs
        access_order: list[int] = []
        access_seen = [False] * nregs
        reg_cost = [0.0] * nregs
        cost_order: list[int] = []
        cost_seen = [False] * nregs
        instr_cost = model.instr_cost = [0.0] * len(flat.instrs)
        use_start, use_ids = flat.use_start, flat.use_ids
        def_start, def_ids = flat.def_start, flat.def_ids
        kinds = flat.kinds
        arith = OpKind.ARITH
        block_frequency = loop_info.block_frequency
        for b, (bstart, bend) in enumerate(flat.block_bounds):
            freq = block_frequency(flat.block_labels[b])
            for i in range(bstart, bend):
                instr_cost[i] = freq
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
                if conflict_relevant_only:
                    # Conflict-relevant: an ARITH op with two or more
                    # distinct bankable reads.
                    targets = flat.bank_reads(i, regclass)
                    if kinds[i] is not arith or len(targets) < 2:
                        continue
                else:
                    targets = [use_ids[j] for j in range(u0, u1)]
                    targets += [def_ids[j] for j in range(d0, d1)]
                for rid in targets:
                    if not cost_seen[rid]:
                        cost_seen[rid] = True
                        cost_order.append(rid)
                    reg_cost[rid] += freq
        regs = flat.regs
        model._access_cost = {regs[r]: access[r] for r in access_order}
        model._reg_cost = {regs[r]: reg_cost[r] for r in cost_order}
        return model

    # ------------------------------------------------------------------
    def cost_of_instruction(self, instr: Instruction) -> float:
        """Eq. 1: the trip-count product of the instruction's loop nest."""
        return self.instr_cost[self.flat.ordinal_of[id(instr)]]

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

