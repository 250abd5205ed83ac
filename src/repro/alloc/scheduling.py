"""Pre-allocation instruction scheduling (the white phase of Fig. 4).

A pressure-aware list scheduler per basic block: instructions are
topologically reordered, preferring ready instructions that *kill* more
live values than they create (the classic register-pressure heuristic the
paper cites as the inspiration for its coarse bank pressure tracking).

Dependencies respected within a block:

* true (def -> use) and output (def -> def) register dependencies,
* anti dependencies (use -> redefining def),
* program order among memory operations and calls,
* the terminator stays last.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import OpKind


@dataclass
class SchedulingResult:
    """Statistics from a scheduling run."""

    blocks_scheduled: int = 0
    instructions_moved: int = 0
    #: True when the new order raised pressure and was rolled back.
    reverted: bool = False


def schedule_function(function: Function, am=None) -> SchedulingResult:
    """Schedule every block of *function* in place.

    The kill-first list heuristic is greedy and can occasionally *raise*
    register pressure; since lowering pressure is this phase's entire
    purpose, the result is compared against the original order and
    reverted wholesale when it is worse ("do no harm").

    The before/after pressure probes read live intervals through *am*
    (created on demand), so the "before" probe is a cache hit whenever an
    earlier phase left valid intervals behind; reorders invalidate all but
    the CFG-level analyses, leaving the cache consistent on return.  A
    revert puts the pre-schedule analyses back, since the blocks then hold
    exactly the instructions they were built from.
    """
    from ..obs import TRACER
    from ..passes import (
        CFG_ONLY,
        AnalysisManager,
        FlatIRAnalysis,
        LiveIntervalsAnalysis,
    )

    if am is None:
        am = AnalysisManager(function)

    before_pressure = am.get(LiveIntervalsAnalysis).max_pressure()
    # One lowering serves every block: ``ordinal_of`` is keyed by
    # instruction identity, so reordering earlier blocks does not
    # invalidate the CSR rows the later blocks read.
    flat = am.get(FlatIRAnalysis)
    original_orders = [list(block.instructions) for block in function.blocks]

    result = SchedulingResult()
    with TRACER.span(
        "list-schedule", category="stage", function=function.name
    ):
        for block in function.blocks:
            moved = _schedule_block(block, flat)
            result.blocks_scheduled += 1
            result.instructions_moved += moved

    if result.instructions_moved:
        before = am.stash(CFG_ONLY)
        after_pressure = am.get(LiveIntervalsAnalysis).max_pressure()
        if after_pressure > before_pressure:
            for block, order in zip(function.blocks, original_orders):
                block.instructions = order
            result.instructions_moved = 0
            result.reverted = True
            am.invalidate(CFG_ONLY)
            am.restore(before)
    facts = {"scheduling.instructions_moved": result.instructions_moved}
    if result.reverted:
        facts["scheduling.reverted"] = 1
    TRACER.note(**facts)
    return result


def _schedule_block(block: BasicBlock, flat) -> int:
    body = [i for i in block.instructions if not i.is_terminator]
    terminator = block.terminator
    if len(body) < 2:
        return 0

    # Per-index operand views: interned rid slices from the flat CSR.
    # Interning preserves operand equality (equal registers share a rid),
    # and the algorithm below only compares operands for equality.
    ordinal_of = flat.ordinal_of
    use_start, use_ids = flat.use_start, flat.use_ids
    def_start, def_ids = flat.def_start, flat.def_ids
    kinds = flat.kinds
    mem_kinds = (OpKind.LOAD, OpKind.STORE, OpKind.CALL)
    uses_list = []
    defs_list = []
    is_mem = []
    for instr in body:
        o = ordinal_of[id(instr)]
        uses_list.append(use_ids[use_start[o]: use_start[o + 1]])
        defs_list.append(def_ids[def_start[o]: def_start[o + 1]])
        is_mem.append(kinds[o] in mem_kinds)

    preds: dict[int, set[int]] = {i: set() for i in range(len(body))}
    succs: dict[int, set[int]] = {i: set() for i in range(len(body))}

    def add_dep(earlier: int, later: int) -> None:
        if earlier != later:
            preds[later].add(earlier)
            succs[earlier].add(later)

    last_def: dict = {}
    last_uses: dict = {}
    last_mem: int | None = None
    for i in range(len(body)):
        for use in uses_list[i]:
            if use in last_def:
                add_dep(last_def[use], i)  # true dependency
            last_uses.setdefault(use, []).append(i)
        for dst in defs_list[i]:
            if dst in last_def:
                add_dep(last_def[dst], i)  # output dependency
            for user in last_uses.get(dst, ()):
                add_dep(user, i)  # anti dependency
            last_def[dst] = i
            last_uses[dst] = []
        if is_mem[i]:
            if last_mem is not None:
                add_dep(last_mem, i)  # conservative memory order
            last_mem = i

    # Kill counts: a use kills a value if no later instruction in the block
    # uses it (approximation: count last-use positions).
    final_use: dict = {}
    for i in range(len(body)):
        for use in uses_list[i]:
            final_use[use] = i

    # Static keys: prefer more kills, fewer new values, then original
    # order.  They never change and the position makes them unique, so
    # a heap pops exactly the order a sorted ready list would.
    keys = []
    for i in range(len(body)):
        kills = sum(1 for u in uses_list[i] if final_use.get(u) == i)
        keys.append((-(kills - len(defs_list[i])), i))

    ready = [keys[i] for i in range(len(body)) if not preds[i]]
    heapq.heapify(ready)
    waiting = [len(preds[i]) for i in range(len(body))]
    order: list[int] = []
    while ready:
        __, current = heapq.heappop(ready)
        order.append(current)
        for succ in succs[current]:
            waiting[succ] -= 1
            if not waiting[succ]:
                heapq.heappush(ready, keys[succ])

    if len(order) != len(body):
        raise AssertionError(f"scheduler dropped instructions in {block.label}")

    moved = sum(1 for position, original in enumerate(order) if position != original)
    new_body = [body[i] for i in order]
    block.instructions = new_body + ([terminator] if terminator is not None else [])
    return moved
