"""Edge cases across the stack: degenerate functions through every layer."""

import pytest

from repro.analysis import (
    ConflictGraph,
    InterferenceGraph,
    LiveIntervals,
    SameDisplacementGraph,
)
from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir import Function, IRBuilder, instruction as ins, verify_function
from repro.ir.flat import FlatFunction
from repro.prescount import (
    PipelineConfig,
    PresCountBankAssigner,
    run_pipeline,
    split_subgroups,
)
from repro.sim import (
    DsaMachine,
    DynamicSimulator,
    ValueInterpreter,
    analyze_static,
    estimate_energy,
)


def empty_ret_function():
    fn = Function("empty")
    fn.add_block("entry").append(ins.ret())
    return fn


def single_op_function():
    b = IRBuilder("one")
    x = b.const(1.0)
    b.ret(x)
    return b.finish()


class TestDegenerateFunctions:
    def test_empty_verifies(self):
        verify_function(empty_ret_function())

    def test_empty_through_analyses(self):
        fn = empty_ret_function()
        assert len(LiveIntervals.build(fn)) == 0
        assert len(InterferenceGraph.build(fn)) == 0
        assert len(ConflictGraph.build(fn)) == 0
        assert len(SameDisplacementGraph.build(fn)) == 0
        assert FlatFunction(fn).num_slots == 2  # the ret

    def test_empty_through_pipeline(self, rf_rv2):
        for method in ("non", "bcr", "bpc"):
            result = run_pipeline(empty_ret_function(), PipelineConfig(rf_rv2, method))
            assert analyze_static(result.function, rf_rv2).conflicts == 0

    def test_empty_through_simulators(self, rf_rv2):
        fn = empty_ret_function()
        assert DynamicSimulator(rf_rv2).run(fn).executed_instructions == 1
        assert ValueInterpreter().run(fn).return_values == ()
        assert estimate_energy(fn, rf_rv2).total == 0.0

    def test_empty_through_dsa_machine(self, rf_dsa):
        report = DsaMachine(rf_dsa).run(empty_ret_function())
        assert report.cycles == 1.0  # one bundle: the ret

    def test_single_value_pipeline(self, rf_small):
        fn = single_op_function()
        result = run_pipeline(fn, PipelineConfig(rf_small, "bpc"))
        assert result.spill_count == 0

    def test_bank_assigner_on_conflict_free_function(self, rf_rv2):
        fn = single_op_function()
        assignment = PresCountBankAssigner(rf_rv2).assign(fn)
        # Only free-register balancing applies.
        assert len(assignment) == 1
        assert assignment.residual_cost == 0.0

    def test_sdg_split_noop_on_empty(self):
        result = split_subgroups(empty_ret_function())
        assert result.copies_inserted == 0


class TestExtremeRegisterFiles:
    def test_single_bank_file_everything_conflicts(self):
        b = IRBuilder("f")
        x, y = b.const(1.0), b.const(2.0)
        t = b.arith("fadd", x, y)
        b.ret(t)
        fn = b.finish()
        rf = BankedRegisterFile(8, 1)
        result = run_pipeline(fn, PipelineConfig(rf, "bpc"))
        # One bank: bpc cannot help; the conflict stays.
        assert analyze_static(result.function, rf).bank_conflicts == 1

    def test_banks_equal_registers(self):
        """One register per bank: conflicts impossible, pressure extreme."""
        b = IRBuilder("f")
        x, y = b.const(1.0), b.const(2.0)
        t = b.arith("fadd", x, y)
        b.ret(t)
        fn = b.finish()
        rf = BankedRegisterFile(4, 4)
        result = run_pipeline(fn, PipelineConfig(rf, "non"))
        assert analyze_static(result.function, rf).bank_conflicts == 0

    def test_minimal_dsa(self):
        rf = BankSubgroupRegisterFile(8, 2, 4)  # exactly one period
        assert rf.registers_per_bank == 4
        assert len(rf.registers_conforming(0, 0)) == 1

    def test_huge_trip_counts_static_only(self):
        """Cost model handles astronomically hot loops without overflow."""
        b = IRBuilder("f")
        x, y = b.const(1.0), b.const(2.0)
        acc = b.const(0.0)
        with b.loop(trip_count=10**6):
            with b.loop(trip_count=10**6):
                b.arith_into(acc, "fadd", x, y)
        b.ret(acc)
        fn = b.finish()
        rf = BankedRegisterFile(32, 2)
        result = run_pipeline(fn, PipelineConfig(rf, "bpc"))
        assert analyze_static(result.function, rf).bank_conflicts == 0


class TestRepeatedRuns:
    def test_pipeline_is_deterministic(self, rf_rv2):
        from repro.ir import print_function
        from tests.conftest import build_mac_kernel

        fn = build_mac_kernel()
        first = run_pipeline(fn, PipelineConfig(rf_rv2, "bpc"))
        second = run_pipeline(fn, PipelineConfig(rf_rv2, "bpc"))
        assert print_function(first.function) == print_function(second.function)

    def test_allocator_object_reusable(self, rf_rv2):
        from repro.alloc import GreedyAllocator
        from tests.conftest import build_mac_kernel

        allocator = GreedyAllocator(rf_rv2)
        a = allocator.run(build_mac_kernel(n_pairs=2))
        b = allocator.run(build_mac_kernel(n_pairs=4))
        assert a.spill_count == 0 and b.spill_count == 0
