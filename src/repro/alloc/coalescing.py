"""Register coalescing: remove copies whose endpoints do not interfere.

This is the standard LLVM phase that runs before the bank assignment in
the Fig. 4 pipeline.  Its position matters for the paper: SDG-based
subgroup splitting inserts copies *after* coalescing precisely so they do
not get merged away again.

Implementation: iterate to a fixed point; in each round, find copy
instructions ``dst = mov src`` between virtual registers of one class
whose live intervals do not overlap, merge ``dst`` into ``src`` (rewriting
the whole function), and drop the copy.  Conservative and simple — exactly
what the reproduction needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instruction import OpKind
from ..ir.types import RegClass, VirtualRegister
from ..obs import TRACER
from ..passes import CFG_ONLY, AnalysisManager, FlatIRAnalysis, LiveIntervalsAnalysis


@dataclass
class CoalescingResult:
    """Outcome of a coalescing run."""

    copies_removed: int = 0
    rounds: int = 0
    #: merged vreg -> representative it was folded into.
    merged: dict[VirtualRegister, VirtualRegister] = field(default_factory=dict)


def coalesce(
    function: Function,
    regclass: RegClass | None = None,
    max_rounds: int = 8,
    am: AnalysisManager | None = None,
) -> CoalescingResult:
    """Coalesce copies in *function* in place; returns statistics.

    Copies marked ``sdg_copy`` or ``split_copy`` are never coalesced: they
    were inserted deliberately by later phases (subgroup splitting inserts
    its copies after this pass precisely to keep them).

    Live intervals come from *am* (one is created when absent); every
    round that rewrites the function invalidates all but the CFG-level
    analyses, so the cache is consistent with the final function state
    when this returns.
    """
    if am is None:
        am = AnalysisManager(function)
    result = CoalescingResult()
    for _round in range(max_rounds):
        with TRACER.span(
            "coalesce-round", category="stage", function=function.name,
            round=_round,
        ):
            merged_this_round = _coalesce_round(function, regclass, result, am)
        result.rounds += 1
        if not merged_this_round:
            break
    TRACER.note(**{
        "coalescing.copies_removed": result.copies_removed,
        "coalescing.rounds": result.rounds,
    })
    return result


def _coalesce_round(
    function: Function,
    regclass: RegClass | None,
    result: CoalescingResult,
    am: AnalysisManager,
) -> int:
    live = am.get(LiveIntervalsAnalysis)
    mapping: dict[VirtualRegister, VirtualRegister] = {}
    dead_copies: set[int] = set()

    for block in function.blocks:
        for instr in block:
            if instr.kind is not OpKind.COPY:
                continue
            if instr.attrs.get("sdg_copy") or instr.attrs.get("split_copy"):
                continue
            if len(instr.defs) != 1 or len(instr.uses) != 1:
                continue
            dst, src = instr.defs[0], instr.uses[0]
            if not isinstance(dst, VirtualRegister) or not isinstance(src, VirtualRegister):
                continue
            if dst.regclass != src.regclass:
                continue
            if regclass is not None and dst.regclass != regclass:
                continue
            # Resolve through merges already decided this round.
            dst = mapping.get(dst, dst)
            src = mapping.get(src, src)
            if dst == src:
                dead_copies.add(id(instr))
                continue
            if dst not in live.intervals or src not in live.intervals:
                continue
            # One bitmask AND: exactly LiveInterval.overlaps.
            if live.of(dst).mask & live.of(src).mask:
                # Overlap caused by this very copy is fine only when the
                # copy is the single connection; be conservative and skip.
                continue
            mapping[dst] = src
            result.merged[dst] = src
            dead_copies.add(id(instr))

    if not mapping and not dead_copies:
        return 0

    # Path-compress the mapping (a -> b, b -> c becomes a -> c).
    def resolve(reg: VirtualRegister) -> VirtualRegister:
        seen = set()
        while reg in mapping and reg not in seen:
            seen.add(reg)
            reg = mapping[reg]
        return reg

    compressed = {reg: resolve(reg) for reg in mapping}

    # Targeted rewrite: the flat reverse index names exactly the
    # instructions that reference a merged register; everything else is
    # kept by identity (value-identical to rewriting it with a mapping
    # that hits nothing).
    flat = am.get(FlatIRAnalysis)
    uses_of = flat.uses_of_reg()
    reg_ids = flat.reg_ids
    affected: set[int] = set()
    for reg in compressed:
        rid = reg_ids.get(reg)
        if rid is not None:
            affected.update(uses_of[rid])
    ordinal_of = flat.ordinal_of
    removed = 0
    for block in function.blocks:
        new_instructions = []
        for instr in block.instructions:
            if id(instr) in dead_copies:
                removed += 1
                continue
            if ordinal_of.get(id(instr)) in affected:
                new_instructions.append(instr.rewrite(compressed))
            else:
                new_instructions.append(instr)
        block.instructions = new_instructions
    result.copies_removed += removed
    # The rewrite replaced instruction objects: every id()-keyed or
    # register-keyed analysis is stale; only the block graph survives.
    am.invalidate(CFG_ONLY)
    return removed
