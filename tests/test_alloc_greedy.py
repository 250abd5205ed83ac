"""Tests for the greedy allocator (assign / evict / split / spill)."""

import pytest

from repro.alloc import AllocationError, GreedyAllocator
from repro.analysis import LiveIntervals
from repro.banks import BankedRegisterFile
from repro.ir import IRBuilder
from repro.ir.types import FP, PhysicalRegister, VirtualRegister
from repro.obs import TRACER
from repro.sim import observably_equivalent
from tests.conftest import build_mac_kernel


def remaining_vregs(function, regclass=FP):
    return [
        r
        for __, i in function.instructions()
        for r in i.regs()
        if isinstance(r, VirtualRegister) and r.regclass == regclass
    ]


class TestBasicAllocation:
    def test_all_vregs_rewritten(self, rf_rv2):
        fn = build_mac_kernel()
        result = GreedyAllocator(rf_rv2).run(fn)
        assert remaining_vregs(result.function) == []

    def test_no_spills_with_plenty_of_registers(self, rf_rich):
        fn = build_mac_kernel(n_pairs=8)
        result = GreedyAllocator(rf_rich).run(fn)
        assert result.spill_count == 0
        assert result.spill_instructions == 0

    def test_assignment_covers_all_original_vregs_or_spills(self, rf_rv2):
        fn = build_mac_kernel()
        result = GreedyAllocator(rf_rv2).run(fn)
        for vreg in fn.virtual_registers(FP):
            assert vreg in result.assignment or vreg in result.spilled

    def test_input_function_untouched_by_default(self, rf_rv2):
        fn = build_mac_kernel()
        before = fn.instruction_count()
        GreedyAllocator(rf_rv2).run(fn)
        assert fn.instruction_count() == before
        assert remaining_vregs(fn)  # still virtual

    def test_clone_false_mutates_in_place(self, rf_rv2):
        fn = build_mac_kernel()
        result = GreedyAllocator(rf_rv2).run(fn, clone=False)
        assert result.function is fn
        assert remaining_vregs(fn) == []

    def test_semantics_preserved_rich(self, rf_rich):
        fn = build_mac_kernel(n_pairs=6)
        result = GreedyAllocator(rf_rich).run(fn)
        assert observably_equivalent(fn, result.function)


class TestSpilling:
    def test_tight_file_spills(self):
        fn = build_mac_kernel(n_pairs=10)  # ~21 live values
        rf = BankedRegisterFile(8, 2)
        result = GreedyAllocator(rf).run(fn)
        assert result.spill_count > 0
        assert result.spill_instructions > 0
        assert remaining_vregs(result.function) == []

    def test_spill_code_is_tagged(self):
        fn = build_mac_kernel(n_pairs=10)
        rf = BankedRegisterFile(8, 2)
        result = GreedyAllocator(rf).run(fn)
        spill_ops = [
            i for __, i in result.function.instructions() if i.attrs.get("spill")
        ]
        assert len(spill_ops) == result.spill_instructions

    def test_semantics_preserved_under_spilling(self):
        fn = build_mac_kernel(n_pairs=10)
        rf = BankedRegisterFile(8, 2)
        result = GreedyAllocator(rf).run(fn)
        assert observably_equivalent(fn, result.function)

    def test_impossibly_small_file_raises(self):
        # One register cannot hold three simultaneous operands.
        b = IRBuilder("f")
        x, y, z = b.const(1.0), b.const(2.0), b.const(3.0)
        t = b.arith("fmadd", x, y, z)
        b.ret(t)
        fn = b.finish()
        rf = BankedRegisterFile(1, 1)
        with pytest.raises(AllocationError):
            GreedyAllocator(rf).run(fn)


class TestEviction:
    def test_eviction_happens_under_pressure(self):
        fn = build_mac_kernel(n_pairs=10)
        rf = BankedRegisterFile(16, 2)
        result = GreedyAllocator(rf).run(fn)
        # Pressure exceeds the file: something must have been evicted or
        # spilled; both recorded.
        assert result.evictions + result.spill_count > 0

    def test_eviction_bounded(self):
        fn = build_mac_kernel(n_pairs=12)
        rf = BankedRegisterFile(8, 2)
        allocator = GreedyAllocator(rf, max_evictions_per_vreg=2)
        result = allocator.run(fn)  # must terminate
        assert remaining_vregs(result.function) == []


class TestPolicyIntegration:
    def test_policy_order_restricts_registers(self, rf_rv2):
        class OnlyBankZero:
            def setup(self, allocator):
                self.regs = rf_rv2.registers_in_bank(0)

            def order(self, vreg, interval):
                return self.regs

        fn = build_mac_kernel(n_pairs=2)
        result = GreedyAllocator(rf_rv2, OnlyBankZero()).run(fn)
        used_banks = {
            rf_rv2.bank_of(r)
            for __, i in result.function.instructions()
            for r in i.regs()
            if isinstance(r, PhysicalRegister)
        }
        assert used_banks == {0}

    def test_policy_callbacks_fire(self, rf_rv2):
        events = []

        class Recorder:
            def setup(self, allocator):
                events.append("setup")

            def order(self, vreg, interval):
                events.append("order")
                return []

        fn = build_mac_kernel(n_pairs=2)
        result = GreedyAllocator(rf_rv2, Recorder()).run(fn)
        assert events[0] == "setup"
        assert events.count("order") >= 5
        # Each assigned register was ordered at least once.
        assert events.count("order") >= len(result.assignment)

    def test_split_hook_fires(self):
        events = []

        class Recorder:
            def setup(self, allocator):
                self.regs = allocator.register_file.registers()

            def order(self, vreg, interval):
                return self.regs

            def on_split(self, parent, children):
                events.append((parent, tuple(children)))

        fn = build_mac_kernel(n_pairs=10)
        GreedyAllocator(BankedRegisterFile(8, 2), Recorder()).run(fn)
        assert events
        for parent, children in events:
            assert len(children) == 2
            assert parent not in children


class TestStats:
    def test_bank_histogram_sums_to_assignments(self, rf_rv2):
        fn = build_mac_kernel()
        result = GreedyAllocator(rf_rv2).run(fn)
        histogram = [0] * rf_rv2.num_banks
        for preg in result.assignment.values():
            histogram[rf_rv2.bank_of(preg)] += 1
        assert sum(histogram) == len(result.assignment)
        # Index order alternates banks, so "non" fills both.
        assert all(histogram)

    def test_max_pressure_reported(self, rf_rv2):
        fn = build_mac_kernel()
        TRACER.enable()
        TRACER.reset()
        try:
            with TRACER.span("allocate"):
                GreedyAllocator(rf_rv2).run(fn)
            noted = [
                s["args"]["alloc.max_pressure"] for s in TRACER.spans
                if "alloc.max_pressure" in s["args"]
            ]
        finally:
            TRACER.enable(False)
            TRACER.reset()
        assert noted == [LiveIntervals.build(fn).max_pressure(FP)]
        assert noted[0] >= 9

    def test_max_pressure_not_computed_when_not_recording(self, rf_rv2, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("max_pressure swept with the recorder off")

        monkeypatch.setattr(LiveIntervals, "max_pressure", fail)
        GreedyAllocator(rf_rv2).run(build_mac_kernel())
