"""Post-allocation register renumbering — the related-work baseline.

The paper's §V surveys the *post-allocation* family of bank-conflict
mitigations: Patney et al. renumber registers after allocation (US patent
8,555,035) and the LTRF work recolors an Interval Conflict Graph.  Their
shared weaknesses — "massive register copies are generated to split an
uncolored RCG ... which requires many unassigned registers" — are exactly
what PresCount's pre-allocation integration avoids.  This module
implements the family so the critique is measurable:

1. for every statically conflicting instruction, try to *renumber* one of
   the same-bank operands: replace that physical register globally with a
   register of another bank that is free over its entire live range
   (needs spare architectural registers — plentiful on RV#1, scarce on
   RV#2);
2. when no global renumbering exists, fall back to a *local copy*:
   ``newreg = mov oldreg`` right before the instruction, with ``newreg``
   from another bank and free around that point;
3. when even that fails, the conflict stays.

Run it after a ``non`` allocation to get the paper's "post" method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.intervals import LiveInterval
from ..banks.register_file import RegisterFile
from ..ir import instruction as ins
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.types import FP, PhysicalRegister, RegClass


@dataclass
class PostRenumberResult:
    """Outcome of one renumbering pass."""

    conflicts_found: int = 0
    renumbered: int = 0
    copies_inserted: int = 0
    unresolved: int = 0
    #: global preg -> preg renames applied.
    renames: dict[PhysicalRegister, PhysicalRegister] = field(default_factory=dict)


def _conflicting_pairs(instr: Instruction, register_file: RegisterFile, regclass):
    """Same-bank read pairs of one instruction (first occurrence order)."""
    reads = [
        r for r in instr.bankable_reads(regclass) if isinstance(r, PhysicalRegister)
    ]
    pairs = []
    for i, a in enumerate(reads):
        for b in reads[i + 1:]:
            if register_file.bank_of(a) == register_file.bank_of(b):
                pairs.append((a, b))
    return pairs


def renumber_banks(
    function: Function,
    register_file: RegisterFile,
    regclass: RegClass = FP,
    max_passes: int = 4,
    am=None,
) -> PostRenumberResult:
    """Reduce bank conflicts of an *allocated* function in place.

    A global rename fixes the visited instruction but can surface new
    same-bank pairs at the register's other uses, so the pass iterates
    (like the published renumbering schemes) until the conflict count
    stops improving or *max_passes* is hit.

    Slot indexes and live intervals for each sweep come from *am*
    (created on demand): the first sweep hits whatever a preceding
    allocation left cached; sweeps that change the function invalidate
    all but the CFG-level analyses so the next sweep recomputes.
    """
    from ..obs import TRACER
    from ..passes import AnalysisManager

    if am is None:
        am = AnalysisManager(function)
    total = PostRenumberResult()
    previous = None
    for _pass in range(max_passes):
        with TRACER.span(
            "renumber-sweep", category="stage", function=function.name,
            sweep=_pass,
        ):
            result = _renumber_once(function, register_file, regclass, am)
        total.conflicts_found = max(total.conflicts_found, result.conflicts_found)
        total.renumbered += result.renumbered
        total.copies_inserted += result.copies_inserted
        total.unresolved = result.unresolved
        total.renames.update(result.renames)
        remaining = result.conflicts_found - result.renumbered - result.copies_inserted
        if result.conflicts_found == 0 or previous == result.conflicts_found:
            break
        previous = result.conflicts_found
    TRACER.note(**{
        "post.renumbered": total.renumbered,
        "post.copies_inserted": total.copies_inserted,
        "post.unresolved": total.unresolved,
    })
    return total


def _renumber_once(
    function: Function,
    register_file: RegisterFile,
    regclass: RegClass,
    am,
) -> PostRenumberResult:
    """One renumbering sweep (see :func:`renumber_banks`)."""
    from ..passes import LiveIntervalsAnalysis, SlotIndexesAnalysis

    result = PostRenumberResult()
    slots = am.get(SlotIndexesAnalysis)
    live = am.get(LiveIntervalsAnalysis)

    # Every candidate-vs-victim range check is one bitmask AND (the lazy
    # interval masks stay correct across the in-place `occupied()`
    # bookkeeping: add_segment resets them).
    def overlaps(a: LiveInterval, b: LiveInterval) -> bool:
        return bool(a.mask & b.mask)

    def interval_of(reg: PhysicalRegister) -> LiveInterval | None:
        return live.intervals.get(reg)

    def occupied(reg: PhysicalRegister) -> LiveInterval:
        interval = interval_of(reg)
        if interval is None:
            interval = LiveInterval(reg)
            live.intervals[reg] = interval
        return interval

    #: pending copy insertions: instruction id -> list of copies.
    pending: dict[int, list[Instruction]] = {}
    #: per-instruction operand rewrites from local copies.
    local_rewrites: dict[int, dict[PhysicalRegister, PhysicalRegister]] = {}
    global_renames: dict[PhysicalRegister, PhysicalRegister] = {}

    all_registers = register_file.registers()
    # Candidate scan cap: on huge files checking every register per
    # conflict is wasteful; untouched registers all look alike, so a
    # bounded prefix per bank suffices.
    if len(all_registers) > 256:
        capped: list[PhysicalRegister] = []
        per_bank = 128 // register_file.num_banks
        counts = [0] * register_file.num_banks
        for reg in all_registers:
            bank = register_file.bank_of(reg)
            if counts[bank] < per_bank:
                counts[bank] += 1
                capped.append(reg)
        all_registers = capped

    #: Registers renamed away: their old names must never be reused as
    #: candidates (reusing one would create an A->B / B->A cycle).
    retired: set[PhysicalRegister] = set()

    def resolve(reg: PhysicalRegister) -> PhysicalRegister:
        seen = set()
        while reg in global_renames and reg not in seen:
            seen.add(reg)
            reg = global_renames[reg]
        return reg

    # Co-read partners per register, across the whole function: a rename
    # is only a fix if the new bank differs from *every* partner's bank,
    # otherwise it trades one conflict for another at a different site.
    partners: dict[PhysicalRegister, set[PhysicalRegister]] = {}
    for block in function.blocks:
        for instr in block:
            reads = [
                r for r in instr.bankable_reads(regclass)
                if isinstance(r, PhysicalRegister)
            ]
            for i, a in enumerate(reads):
                for b in reads[i + 1:]:
                    partners.setdefault(a, set()).add(b)
                    partners.setdefault(b, set()).add(a)

    for block in function.blocks:
        for instr in block:
            # Apply global renames decided so far when inspecting operands.
            current = instr.rewrite(global_renames) if global_renames else instr
            pairs = _conflicting_pairs(current, register_file, regclass)
            if not pairs:
                continue
            result.conflicts_found += len(pairs)
            for __, victim in pairs:
                victim = resolve(victim)
                victim_interval = interval_of(victim)
                slot = slots.slot(instr)
                moved = False
                # 1. Global renumbering: a whole-range free register in
                #    another bank.
                victim_partner_banks = {
                    register_file.bank_of(resolve(p))
                    for p in partners.get(victim, ())
                }
                if victim_interval is not None:
                    for candidate in all_registers:
                        if candidate in retired or candidate == victim:
                            continue
                        if register_file.bank_of(candidate) in victim_partner_banks:
                            # Would fix this site but conflict at another.
                            continue
                        cand_interval = interval_of(candidate)
                        if cand_interval is None or not overlaps(
                            cand_interval, victim_interval
                        ):
                            # Path-compress: entries already pointing at
                            # the victim must follow it to the candidate,
                            # keeping the mapping single-level (rewrite()
                            # applies it in one shot).
                            for old, target in list(global_renames.items()):
                                if target == victim:
                                    global_renames[old] = candidate
                            global_renames[victim] = candidate
                            retired.add(victim)
                            # The candidate now also carries the victim's
                            # range; merge so later checks see it.
                            target = occupied(candidate)
                            for seg in victim_interval.segments:
                                target.add_segment(seg.start, seg.end)
                            live.intervals.pop(victim, None)
                            result.renumbered += 1
                            moved = True
                            break
                if moved:
                    continue
                # 2. Local copy: a point-free register in another bank.
                for candidate in all_registers:
                    if candidate in retired or candidate == victim:
                        continue
                    if register_file.bank_of(candidate) == register_file.bank_of(victim):
                        continue
                    cand_interval = interval_of(candidate)
                    probe = LiveInterval(candidate)
                    probe.add_segment(max(0, slot - 1), slot + 1)
                    if cand_interval is None or not overlaps(cand_interval, probe):
                        pending.setdefault(id(instr), []).append(
                            ins.copy(candidate, victim, post_copy=True)
                        )
                        local_rewrites.setdefault(id(instr), {})[victim] = candidate
                        occupied(candidate).add_segment(max(0, slot - 1), slot + 1)
                        result.copies_inserted += 1
                        moved = True
                        break
                if not moved:
                    result.unresolved += 1

    # Materialize: global renames everywhere, local copies in front of
    # their instructions, local rewrites on the instruction itself.
    for block in function.blocks:
        new_instructions: list[Instruction] = []
        for instr in block.instructions:
            rewritten = instr.rewrite(global_renames) if global_renames else instr
            local = local_rewrites.get(id(instr))
            new_instructions.extend(
                copy.rewrite(global_renames) if global_renames else copy
                for copy in pending.get(id(instr), [])
            )
            if local:
                # Only the *reads* move to the copy; the original register
                # still receives any writes.  Copy targets picked earlier in
                # the pass may themselves have been globally renamed since,
                # so resolve them through the final map.
                def _local_target(use):
                    target = local.get(use, use)
                    return global_renames.get(target, target)

                new_uses = tuple(
                    _local_target(u) if isinstance(u, PhysicalRegister) else u
                    for u in rewritten.uses
                )
                rewritten = Instruction(
                    rewritten.opcode,
                    rewritten.kind,
                    rewritten.defs,
                    new_uses,
                    rewritten.attrs,
                )
            new_instructions.append(rewritten)
        block.instructions = new_instructions
    result.renames = global_renames
    if result.renumbered or result.copies_inserted:
        # The sweep rewrote instructions *and* used the cached intervals as
        # mutable bookkeeping (occupied()); both copies of the truth are
        # stale now, so drop everything below the CFG.
        from ..passes import CFG_ONLY

        am.invalidate(CFG_ONLY)
    return result
