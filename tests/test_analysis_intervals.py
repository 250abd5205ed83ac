"""Tests for live-interval construction and interval arithmetic."""

import pytest

from repro.analysis import LiveInterval, LiveIntervals, Segment
from repro.ir import parse_function
from repro.ir.flat import FlatFunction
from repro.ir.types import VirtualRegister
from tests.conftest import build_mac_kernel

V = VirtualRegister


class TestSegment:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Segment(5, 5)

    def test_overlap(self):
        assert Segment(0, 4).overlaps(Segment(3, 6))
        assert not Segment(0, 4).overlaps(Segment(4, 6))  # half-open

    def test_contains(self):
        s = Segment(2, 5)
        assert s.contains(2) and s.contains(4)
        assert not s.contains(5) and not s.contains(1)


class TestLiveIntervalArithmetic:
    def test_add_disjoint_segments(self):
        iv = LiveInterval(V(0))
        iv.add_segment(0, 2)
        iv.add_segment(6, 8)
        assert len(iv.segments) == 2
        assert iv.start == 0 and iv.end == 8
        assert iv.size == 4 and iv.span == 8

    def test_merge_overlapping(self):
        iv = LiveInterval(V(0))
        iv.add_segment(0, 4)
        iv.add_segment(2, 6)
        assert iv.segments == [Segment(0, 6)]

    def test_merge_adjacent(self):
        iv = LiveInterval(V(0))
        iv.add_segment(0, 3)
        iv.add_segment(3, 5)
        assert iv.segments == [Segment(0, 5)]

    def test_merge_bridging(self):
        iv = LiveInterval(V(0))
        iv.add_segment(0, 2)
        iv.add_segment(4, 6)
        iv.add_segment(1, 5)
        assert iv.segments == [Segment(0, 6)]

    def test_covers(self):
        iv = LiveInterval(V(0))
        iv.add_segment(0, 2)
        iv.add_segment(4, 6)
        assert iv.covers(1) and iv.covers(4)
        assert not iv.covers(2) and not iv.covers(3) and not iv.covers(6)

    def test_overlaps_respects_holes(self):
        a = LiveInterval(V(0))
        a.add_segment(0, 2)
        a.add_segment(6, 8)
        b = LiveInterval(V(1))
        b.add_segment(3, 5)
        assert not a.overlaps(b)
        b.add_segment(7, 9)
        assert a.overlaps(b)

    def test_overlap_amount(self):
        a = LiveInterval(V(0))
        a.add_segment(0, 10)
        b = LiveInterval(V(1))
        b.add_segment(4, 6)
        b.add_segment(8, 12)
        assert a.overlap_amount(b) == 4  # [4,6) + [8,10)

    def test_overlaps_symmetric(self):
        a = LiveInterval(V(0)); a.add_segment(0, 5)
        b = LiveInterval(V(1)); b.add_segment(4, 9)
        assert a.overlaps(b) == b.overlaps(a)


class TestConstruction:
    def test_dead_def_gets_point_interval(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              ret
            }
            """
        )
        live = LiveIntervals.build(fn)
        iv = live.of(V(0))
        assert iv.size == 1

    def test_use_extends_to_read_point(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              %v1:fp = fneg %v0:fp
              ret %v1:fp
            }
            """
        )
        live = LiveIntervals.build(fn)
        v0 = live.of(V(0))
        # Defined at write point 1, read at slot 2 -> [1, 3).
        assert v0.start == 1 and v0.end == 3
        v1 = live.of(V(1))
        # Defined at write point 3, read by ret at slot 4 -> [3, 5).
        assert v1.start == 3 and v1.end == 5

    def test_source_dying_at_instr_does_not_overlap_dest(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              %v1:fp = fneg %v0:fp
              ret %v1:fp
            }
            """
        )
        live = LiveIntervals.build(fn)
        assert not live.of(V(0)).overlaps(live.of(V(1)))

    def test_two_sources_overlap(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              %v1:fp = li #2.0
              %v2:fp = fadd %v0:fp, %v1:fp
              ret %v2:fp
            }
            """
        )
        live = LiveIntervals.build(fn)
        assert live.of(V(0)).overlaps(live.of(V(1)))

    def test_loop_carried_interval_covers_block(self):
        fn = build_mac_kernel()
        live = LiveIntervals.build(fn)
        header = next(b for b in fn.blocks if b.attrs.get("loop_header"))
        start, end = FlatFunction(fn).block_slots(header.label)
        acc = fn.virtual_registers()[-2]  # accumulator defined before loop
        # At least one register is live across the whole loop body.
        covering = [
            iv for iv in live.vreg_intervals()
            if all(iv.covers(s) for s in range(start, end, 2))
        ]
        assert covering

    def test_use_def_slots_recorded_sorted(self):
        fn = build_mac_kernel()
        live = LiveIntervals.build(fn)
        for iv in live.vreg_intervals():
            assert iv.use_slots == sorted(iv.use_slots)
            assert iv.def_slots == sorted(iv.def_slots)


class TestPressure:
    def test_max_pressure_simple(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              %v1:fp = li #2.0
              %v2:fp = fadd %v0:fp, %v1:fp
              ret %v2:fp
            }
            """
        )
        live = LiveIntervals.build(fn)
        assert live.max_pressure() == 2

    def test_pressure_scales_with_live_values(self):
        small = build_mac_kernel(n_pairs=2)
        large = build_mac_kernel(n_pairs=8)
        assert (
            LiveIntervals.build(large).max_pressure()
            > LiveIntervals.build(small).max_pressure()
        )
