"""Live intervals: per-register unions of half-open slot segments.

Built from block liveness the same way LLVM's LiveIntervals pass does:
walk each block backwards seeded with its live-out set, ending segments at
write points and beginning them at read points.  The walk runs on the
flat lowering (:class:`~repro.ir.flat.FlatFunction`), which also numbers
the slots (instruction ``i`` reads at ``2*i`` and writes at ``2*i + 1``)
and whose memoised ``liveness_masks`` supply each block's live-out set.

The interval objects are the currency of the whole allocator stack: the
RIG, the bank pressure counter, the greedy allocator's queues, and the
spiller all operate on :class:`LiveInterval`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..ir.flat import FlatFunction
from ..ir.function import Function
from ..ir.types import Register, RegClass, VirtualRegister


@dataclass(frozen=True)
class Segment:
    """One half-open live segment [start, end) in slot coordinates."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty segment [{self.start}, {self.end})")

    def overlaps(self, other: "Segment") -> bool:
        return self.start < other.end and other.start < self.end

    def contains(self, slot: int) -> bool:
        return self.start <= slot < self.end

    def __repr__(self) -> str:
        return f"[{self.start},{self.end})"


@dataclass
class LiveInterval:
    """The live interval of one register: sorted, disjoint segments.

    Attributes:
        reg: The register this interval describes.
        segments: Sorted by start, pairwise disjoint, adjacent segments
            merged.
        use_slots: Read points of all uses (sorted, may repeat per instr).
        def_slots: Write points of all defs (sorted).
        weight: Spill weight; filled in by the cost model / allocator.
    """

    reg: Register
    segments: list[Segment] = field(default_factory=list)
    use_slots: list[int] = field(default_factory=list)
    def_slots: list[int] = field(default_factory=list)
    weight: float = 0.0
    #: Lazy coverage bitmask (bit *s* set iff slot *s* is covered); the
    #: flat core's O(1) overlap currency.  Excluded from equality so two
    #: value-equal intervals stay equal whether or not the cache is warm.
    _mask: int | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_segment(self, start: int, end: int) -> None:
        """Insert [start, end), merging with overlapping/adjacent segments."""
        if start >= end:
            raise ValueError(f"empty segment [{start}, {end})")
        starts = [s.start for s in self.segments]
        idx = bisect.bisect_left(starts, start)
        # Absorb any segment that overlaps or touches the new one.
        lo = idx
        while lo > 0 and self.segments[lo - 1].end >= start:
            lo -= 1
        hi = idx
        while hi < len(self.segments) and self.segments[hi].start <= end:
            hi += 1
        if lo < hi:
            start = min(start, self.segments[lo].start)
            end = max(end, self.segments[hi - 1].end)
        self.segments[lo:hi] = [Segment(start, end)]
        self._mask = None

    # ------------------------------------------------------------------
    # Coverage bitmask
    # ------------------------------------------------------------------
    @property
    def mask(self) -> int:
        """Coverage bitmask: ``mask_a & mask_b != 0`` iff the intervals
        overlap — exactly :meth:`overlaps`, in one big-int AND."""
        m = self._mask
        if m is None:
            m = 0
            for seg in self.segments:
                m |= (1 << seg.end) - (1 << seg.start)
            self._mask = m
        return m

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def start(self) -> int:
        return self.segments[0].start

    @property
    def end(self) -> int:
        return self.segments[-1].end

    @property
    def size(self) -> int:
        """Total number of covered slots (not the span)."""
        return sum(s.end - s.start for s in self.segments)

    @property
    def span(self) -> int:
        return self.end - self.start

    def covers(self, slot: int) -> bool:
        idx = bisect.bisect_right([s.start for s in self.segments], slot) - 1
        return idx >= 0 and self.segments[idx].contains(slot)

    def overlaps(self, other: "LiveInterval") -> bool:
        """True when any segments of self and other intersect."""
        i = j = 0
        mine, theirs = self.segments, other.segments
        while i < len(mine) and j < len(theirs):
            a, b = mine[i], theirs[j]
            if a.overlaps(b):
                return True
            if a.end <= b.start:
                i += 1
            else:
                j += 1
        return False

    def overlap_amount(self, other: "LiveInterval") -> int:
        """Number of slots covered by both intervals."""
        total = 0
        i = j = 0
        mine, theirs = self.segments, other.segments
        while i < len(mine) and j < len(theirs):
            a, b = mine[i], theirs[j]
            lo, hi = max(a.start, b.start), min(a.end, b.end)
            if lo < hi:
                total += hi - lo
            if a.end <= b.end:
                i += 1
            else:
                j += 1
        return total

    def __repr__(self) -> str:
        segs = "".join(repr(s) for s in self.segments[:4])
        more = "..." if len(self.segments) > 4 else ""
        return f"LiveInterval({self.reg!r} {segs}{more} w={self.weight:.1f})"


@dataclass
class LiveIntervals:
    """All live intervals of one function, keyed by register."""

    function: Function
    intervals: dict[Register, LiveInterval] = field(default_factory=dict)

    @classmethod
    def build(
        cls, function: Function, flat: FlatFunction | None = None
    ) -> "LiveIntervals":
        """Build all intervals over *flat* (lowered here when not given).

        The walk runs on interned rid arrays and constructs each
        interval's canonical segment list in one shot.  Raw ``(start,
        end)`` pairs are collected per rid and canonicalized once (sort +
        touching merge), which equals the incremental
        :meth:`LiveInterval.add_segment` insertion in any order: both
        produce the maximal union of touching ranges.  The interval dict
        is keyed in first-touch walk order, with each block's live-out
        set seeded in rid order, so the order does not depend on the hash
        seed.
        """
        if flat is None:
            flat = FlatFunction(function)
        analysis = cls(function)
        live_out_masks = flat.liveness_masks()[3]
        nregs = flat.num_regs
        seg_lists: list[list | None] = [None] * nregs
        use_lists: list[list | None] = [None] * nregs
        def_lists: list[list | None] = [None] * nregs
        order: list[int] = []
        use_start, use_ids = flat.use_start, flat.use_ids
        def_start, def_ids = flat.def_start, flat.def_ids

        def touch(rid: int) -> list:
            segs = seg_lists[rid]
            if segs is None:
                segs = seg_lists[rid] = []
                use_lists[rid] = []
                def_lists[rid] = []
                order.append(rid)
            return segs

        for b, (bstart, bend) in enumerate(flat.block_bounds):
            if bstart == bend:
                continue  # empty block
            block_start = 2 * bstart
            block_end = 2 * bend
            # `live_end[r]`: the slot up to which r must stay live, walking
            # backwards; live-out registers extend to the block end.
            live_end: dict[int, int] = {}
            m = live_out_masks[b]
            while m:
                low = m & -m
                live_end[low.bit_length() - 1] = block_end
                m &= m - 1
            for i in range(bend - 1, bstart - 1, -1):
                read = 2 * i
                write = read + 1
                for j in range(def_start[i], def_start[i + 1]):
                    rid = def_ids[j]
                    segs = touch(rid)
                    def_lists[rid].append(write)
                    # A dead def is live for just the write point.
                    end = live_end.pop(rid, None)
                    segs.append((write, write + 1 if end is None else end))
                for j in range(use_start[i], use_start[i + 1]):
                    rid = use_ids[j]
                    touch(rid)
                    use_lists[rid].append(read)
                    # The value must cover its read point (read + 1).
                    if rid not in live_end:
                        live_end[rid] = read + 1
            # Whatever is still pending is live-in: extend to block start.
            for rid, end in live_end.items():
                touch(rid).append((block_start, end))

        intervals = analysis.intervals
        regs = flat.regs
        for rid in order:
            raw = seg_lists[rid]
            raw.sort()
            merged: list[Segment] = []
            cur_s, cur_e = raw[0]
            for s, e in raw[1:]:
                if s <= cur_e:
                    if e > cur_e:
                        cur_e = e
                else:
                    merged.append(Segment(cur_s, cur_e))
                    cur_s, cur_e = s, e
            merged.append(Segment(cur_s, cur_e))
            uses = use_lists[rid]
            uses.sort()
            defs = def_lists[rid]
            defs.sort()
            reg = regs[rid]
            intervals[reg] = LiveInterval(reg, merged, uses, defs)
        return analysis

    # ------------------------------------------------------------------
    def of(self, reg: Register) -> LiveInterval:
        return self.intervals[reg]

    def vreg_intervals(self, regclass: RegClass | None = None) -> list[LiveInterval]:
        """Intervals of virtual registers, optionally filtered by class."""
        result = []
        for reg, interval in self.intervals.items():
            if not isinstance(reg, VirtualRegister):
                continue
            if regclass is not None and reg.regclass != regclass:
                continue
            result.append(interval)
        return result

    def max_pressure(self, regclass: RegClass | None = None) -> int:
        """Maximum number of simultaneously live vregs (register pressure).

        This is the quantity Algorithm 1 compares against THRES
        (``OverallRegPressure``).  Computed with an endpoint sweep over all
        segments.
        """
        events: list[tuple[int, int]] = []
        for interval in self.vreg_intervals(regclass):
            for seg in interval.segments:
                events.append((seg.start, 1))
                events.append((seg.end, -1))
        events.sort()
        pressure = peak = 0
        for _, delta in events:
            pressure += delta
            peak = max(peak, pressure)
        return peak

    def __contains__(self, reg: Register) -> bool:
        return reg in self.intervals

    def __len__(self) -> int:
        return len(self.intervals)
