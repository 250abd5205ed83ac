"""Spill decomposition and materialization.

Spilling a live range replaces it with memory residence plus *tiny*
intervals around each instruction that touches the register: a reload
feeds each use, a store drains each def.  The tiny intervals get infinite
spill weight (they must be register-resident for exactly one instruction)
and are re-queued into the allocator.

Decomposition works from the interval's recorded use/def slots rather
than by scanning the IR, because split-generated children exist only as
intervals until :func:`materialize` rewrites the function — the one place
either allocator (greedy and PBQP) turns a :class:`SpillPlan` into code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.intervals import LiveInterval
from ..ir import instruction as ins
from ..ir.flat import FlatFunction
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.types import PhysicalRegister, VirtualRegister, is_reg

#: Spill weight of tiny intervals: they may evict anything and never spill.
TINY_WEIGHT = math.inf


@dataclass
class SpillAction:
    """One reload or store to materialize around an instruction."""

    kind: str  # "reload" | "store"
    instr_id: int
    tiny: VirtualRegister
    original: VirtualRegister
    slot_id: int


@dataclass
class SpillPlan:
    """Accumulated spill decisions for one allocation run."""

    actions: list[SpillAction] = field(default_factory=list)
    #: instruction id -> {spilled vreg -> tiny vreg} operand rewrites.
    rewrites: dict[int, dict[VirtualRegister, VirtualRegister]] = field(default_factory=dict)
    #: spilled vreg -> its stack slot id (used for boundary-copy folding).
    slot_of_vreg: dict[VirtualRegister, int] = field(default_factory=dict)
    next_slot_id: int = 0

    def new_slot(self) -> int:
        slot = self.next_slot_id
        self.next_slot_id += 1
        return slot

    @property
    def instruction_count(self) -> int:
        return len(self.actions)


def spill_interval(
    function: Function,
    flat: FlatFunction,
    interval: LiveInterval,
    plan: SpillPlan,
) -> list[LiveInterval]:
    """Spill *interval*; return the tiny intervals to re-queue.

    *flat* is the lowering the interval's slots number.  One tiny vreg is
    created per instruction touching the register (an instruction that
    both reads and writes it — ``v = op v, x`` — shares a single tiny vreg
    covering the read and write points).
    """
    vreg = interval.reg
    if not isinstance(vreg, VirtualRegister):
        raise TypeError(f"can only spill virtual registers, got {vreg!r}")
    slot_id = plan.slot_of_vreg.get(vreg)
    if slot_id is None:
        slot_id = plan.new_slot()
        plan.slot_of_vreg[vreg] = slot_id

    # instruction slot -> (reads?, writes?), derived from the interval.
    touching: dict[int, list[bool]] = {}
    for use_slot in interval.use_slots:
        touching.setdefault(use_slot, [False, False])[0] = True
    for write_point in interval.def_slots:
        touching.setdefault(write_point - 1, [False, False])[1] = True

    tiny_intervals: list[LiveInterval] = []
    for slot, (reads, writes) in sorted(touching.items()):
        instr = flat.instr_at(slot)
        tiny = function.new_vreg(vreg.regclass)
        start = slot - 1 if reads else slot + 1
        end = slot + 2 if writes else slot + 1
        tiny_interval = LiveInterval(tiny, weight=TINY_WEIGHT)
        tiny_interval.add_segment(start, end)
        if reads:
            tiny_interval.use_slots.append(slot)
            plan.actions.append(SpillAction("reload", id(instr), tiny, vreg, slot_id))
        if writes:
            tiny_interval.def_slots.append(slot + 1)
            plan.actions.append(SpillAction("store", id(instr), tiny, vreg, slot_id))
        plan.rewrites.setdefault(id(instr), {})[vreg] = tiny
        tiny_intervals.append(tiny_interval)
    return tiny_intervals


def materialize(
    function: Function,
    plan: SpillPlan,
    assignment: dict[VirtualRegister, PhysicalRegister],
    rewrites: dict[int, dict[VirtualRegister, VirtualRegister]] | None = None,
) -> int:
    """Insert *plan*'s reloads and stores and rewrite every operand.

    Each operand goes through the split *rewrites* (instruction id ->
    {parent -> child}), then the plan's spill rewrites, then
    *assignment*; composing the three lookups per operand is exactly the
    chained :meth:`Instruction.rewrite` sequence, so each instruction is
    rebuilt once (sharing ``attrs`` as ``rewrite`` does).  With an empty
    assignment the spill code keeps its tiny vregs for a later round.
    The plan's actions and rewrites are consumed; its stack slots stay.
    Returns the number of spill instructions inserted.
    """
    reloads: dict[int, list[Instruction]] = {}
    stores: dict[int, list[Instruction]] = {}
    for action in plan.actions:
        target = assignment.get(action.tiny, action.tiny)
        if action.kind == "reload":
            reloads.setdefault(action.instr_id, []).append(
                ins.load(target, spill_slot=action.slot_id, spill=True)
            )
        else:
            stores.setdefault(action.instr_id, []).append(
                ins.store(target, spill_slot=action.slot_id, spill=True)
            )

    split_rewrites = rewrites or {}
    spill_rewrites = plan.rewrites
    for block in function.blocks:
        new_instructions: list[Instruction] = []
        for instr in block.instructions:
            key = id(instr)
            split_map = split_rewrites.get(key)
            spill_map = spill_rewrites.get(key)
            if split_map or spill_map:
                def look(r, _sp=split_map, _sl=spill_map):
                    if _sp:
                        r = _sp.get(r, r)
                    if _sl:
                        r = _sl.get(r, r)
                    return assignment.get(r, r)
            else:
                look = lambda r: assignment.get(r, r)  # noqa: E731
            rewritten = Instruction(
                instr.opcode,
                instr.kind,
                tuple(look(d) for d in instr.defs),
                tuple(look(u) if is_reg(u) else u for u in instr.uses),
                instr.attrs,
            )
            pre = reloads.get(key)
            if pre:
                new_instructions.extend(pre)
            new_instructions.append(rewritten)
            post = stores.get(key)
            if post:
                new_instructions.extend(post)
        block.instructions = new_instructions

    inserted = len(plan.actions)
    plan.actions.clear()
    plan.rewrites.clear()
    return inserted
