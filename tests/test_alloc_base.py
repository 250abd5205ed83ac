"""Tests for allocator foundations (results, physreg state, policies)."""

from repro.alloc.base import AllocationResult, NaturalOrderPolicy, PhysRegState
from repro.analysis import LiveInterval
from repro.banks import BankedRegisterFile
from repro.ir import Function
from repro.ir.types import PhysicalRegister, VirtualRegister

V = VirtualRegister
P = PhysicalRegister


def interval(vid, *segments):
    iv = LiveInterval(V(vid))
    for start, end in segments:
        iv.add_segment(start, end)
    return iv


class TestPhysRegState:
    def test_free_when_empty(self):
        state = PhysRegState(P(0))
        assert state.is_free_for(interval(0, (0, 10)))

    def test_overlap_detected(self):
        state = PhysRegState(P(0))
        state.add(interval(0, (0, 10)))
        assert not state.is_free_for(interval(1, (5, 6)))
        assert state.is_free_for(interval(2, (10, 12)))

    def test_conflicts_with_lists_overlappers(self):
        state = PhysRegState(P(0))
        a = interval(0, (0, 4))
        b = interval(1, (8, 12))
        state.add(a)
        state.add(b)
        probe = interval(2, (3, 9))
        assert state.conflicts_with(probe) == [a, b]

    def test_remove(self):
        state = PhysRegState(P(0))
        a = interval(0, (0, 4))
        state.add(a)
        state.remove(a)
        assert state.is_free_for(interval(1, (1, 2)))

    def test_hole_is_free(self):
        state = PhysRegState(P(0))
        state.add(interval(0, (0, 2), (10, 12)))
        assert state.is_free_for(interval(1, (4, 8)))


class TestAllocationResult:
    def test_spill_count_counts_ranges(self):
        result = AllocationResult(Function("f"))
        result.spilled.update({V(1), V(2)})
        assert result.spill_count == 2

    def test_defaults(self):
        result = AllocationResult(Function("f"))
        assert result.copies_inserted == 0
        assert result.evictions == 0
        assert result.assignment == {}
        assert result.spilled == set()
        assert result.spill_instructions == 0
        assert result.copies_removed == 0


class TestNaturalOrderPolicy:
    def test_orders_by_index(self):
        rf = BankedRegisterFile(8, 2)
        policy = NaturalOrderPolicy()

        class FakeAllocator:
            register_file = rf

        policy.setup(FakeAllocator())
        order = policy.order(V(0), interval(0, (0, 2)))
        assert [r.index for r in order] == list(range(8))

    def test_index_order_alternates_banks(self):
        """The property that makes 'non' conflict-prone on interleaved
        files: consecutive allocations land in different banks, so operand
        banks are effectively arbitrary."""
        rf = BankedRegisterFile(8, 2)
        policy = NaturalOrderPolicy()

        class FakeAllocator:
            register_file = rf

        policy.setup(FakeAllocator())
        order = list(policy.order(V(0), interval(0, (0, 2))))
        banks = [rf.bank_of(r) for r in order[:4]]
        assert banks == [0, 1, 0, 1]
