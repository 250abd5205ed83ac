"""Live-range splitting (region split around the hottest use loop).

A faithful miniature of LLVM RAGreedy's region splitting: when an interval
can neither be assigned nor evict anything, it is split into a *hot* child
covering the innermost loop with the most frequent uses and a *cold* child
covering the rest, connected by copies at the loop boundary.  Both
children are re-queued; split-generated children never split again (they
spill instead), bounding the work.

Splitting is precisely the operation the paper calls out as problematic
for prior RCG bank assigners — it creates new virtual registers *after*
the bank assignment phase ran ("Handle split-generated register" in
Algorithm 2); the PresCount policy resolves their bank from the parent.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from ..analysis.intervals import LiveInterval
from ..ir.flat import FlatFunction
from ..ir.function import Function
from ..ir.loops import Loop, LoopInfo
from ..ir.types import VirtualRegister


@dataclass
class CopyAction:
    """A split copy to materialize: ``dst = mov src`` at a block edge."""

    block_label: str
    position: str  # "begin" | "end" (before the terminator)
    dst: VirtualRegister
    src: VirtualRegister


@dataclass
class SplitResult:
    """Children intervals plus rewrites/copies to apply at materialization."""

    children: list[LiveInterval]
    copies: list[CopyAction]
    #: instruction id -> {parent vreg -> child vreg}.
    rewrites: dict[int, dict[VirtualRegister, VirtualRegister]] = field(default_factory=dict)


def _hottest_use_loop(
    interval: LiveInterval,
    flat: FlatFunction,
    loop_info: LoopInfo,
) -> Loop | None:
    """The innermost loop containing the most frequent use of *interval*."""
    best: Loop | None = None
    best_freq = -1.0
    for use in interval.use_slots:
        loop = loop_info.innermost_loop(flat.block_of_slot(use))
        if loop is None:
            continue
        freq = loop_info.block_frequency(loop.header)
        if freq > best_freq:
            best, best_freq = loop, freq
    return best


def try_region_split(
    function: Function,
    flat: FlatFunction,
    loop_info: LoopInfo,
    interval: LiveInterval,
) -> SplitResult | None:
    """Split *interval* around its hottest use loop, or return None.

    *flat* is the lowering the interval's slots number.  Returns None
    when splitting cannot help: all uses sit in one region, the interval
    does not extend beyond the loop, or there is no loop.
    """
    vreg = interval.reg
    if not isinstance(vreg, VirtualRegister):
        return None
    loop = _hottest_use_loop(interval, flat, loop_info)
    if loop is None:
        return None

    # The loop's non-empty block ranges are disjoint (blocks tile the
    # slots in layout order), so once sorted, membership and the range
    # ends inside a segment are bisections.
    loop_ranges = sorted(
        (lo, hi) for lo, hi in map(flat.block_slots, loop.body) if lo < hi
    )
    starts = [lo for lo, __ in loop_ranges]
    points = sorted({p for span in loop_ranges for p in span})

    def in_loop(slot: int) -> bool:
        i = bisect_right(starts, slot) - 1
        return i >= 0 and slot < loop_ranges[i][1]

    # Partition segments between the hot (in-loop) and cold children.
    hot_segments: list[tuple[int, int]] = []
    cold_segments: list[tuple[int, int]] = []
    for seg in interval.segments:
        inner = points[bisect_right(points, seg.start):bisect_left(points, seg.end)]
        boundaries = [seg.start, *inner, seg.end]
        for lo, hi in zip(boundaries, boundaries[1:]):
            target = hot_segments if in_loop(lo) else cold_segments
            if target and target[-1][1] == lo:
                target[-1] = (target[-1][0], hi)
            else:
                target.append((lo, hi))
    if not hot_segments or not cold_segments:
        return None  # nothing to separate

    hot_child = function.new_vreg(vreg.regclass)
    cold_child = function.new_vreg(vreg.regclass)
    hot_interval = LiveInterval(hot_child, weight=interval.weight * 2 + 1)
    cold_interval = LiveInterval(cold_child, weight=interval.weight / 2)
    # Widen each child by one slot at region boundaries so the connecting
    # copies are conservatively covered.
    for lo, hi in hot_segments:
        hot_interval.add_segment(max(0, lo - 1), hi + 1)
    for lo, hi in cold_segments:
        cold_interval.add_segment(max(0, lo - 1), hi + 1)

    for use in interval.use_slots:
        (hot_interval if in_loop(use) else cold_interval).use_slots.append(use)
    for wpoint in interval.def_slots:
        (hot_interval if in_loop(wpoint) else cold_interval).def_slots.append(wpoint)

    result = SplitResult(children=[hot_interval, cold_interval], copies=[])

    # Rewrite every touching instruction, in layout order, to the child
    # owning its region.
    labels, inst_block, instrs = flat.block_labels, flat.inst_block, flat.instrs
    for i in flat.uses_of_reg()[flat.reg_ids[vreg]]:
        child = hot_child if labels[inst_block[i]] in loop.body else cold_child
        result.rewrites[id(instrs[i])] = {vreg: child}

    # Connecting copies: value flows into the loop through each out-of-loop
    # predecessor of the header (the preheader, where the copy executes once
    # rather than per iteration) and out of the loop at each exit edge, but
    # only where the parent is actually live across the boundary.
    cfg = loop_info.cfg
    header_start, __ = flat.block_slots(loop.header)
    if interval.covers(header_start):
        for pred in cfg.preds[loop.header]:
            if pred not in loop.body:
                result.copies.append(CopyAction(pred, "end", hot_child, cold_child))
    exits: dict[str, None] = {}
    for label in loop.body:
        for succ in cfg.succs[label]:
            if succ not in loop.body:
                exits.setdefault(succ)
    for label in exits:
        start, __ = flat.block_slots(label)
        if interval.covers(start):
            result.copies.append(CopyAction(label, "begin", cold_child, hot_child))
    return result

