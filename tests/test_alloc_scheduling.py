"""Tests for the pressure-aware pre-allocation list scheduler."""

from repro.alloc import schedule_function
from repro.analysis import LiveIntervals
from repro.ir import (
    IRBuilder,
    OpKind,
    parse_function,
    print_function,
    verify_function,
)
from repro.ir.flat import FlatFunction
from repro.passes import AnalysisManager, FlatIRAnalysis, LiveIntervalsAnalysis
from repro.sim import observably_equivalent
from repro.workloads import specfp_suite
from tests.conftest import build_mac_kernel
from tests.reference_analyses import (
    raised_liveness,
    reference_intervals,
    reference_liveness,
)


class TestDependencesRespected:
    def test_true_dependency_order_kept(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        y = b.arith("fneg", x)
        z = b.arith("fabs", y)
        b.ret(z)
        fn = b.finish()
        schedule_function(fn)
        order = [i.opcode for i in fn.entry.instructions]
        assert order.index("fneg") < order.index("fabs")
        verify_function(fn)

    def test_memory_order_kept(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        b.store(x)
        y = b.load()
        b.store(y)
        b.ret()
        fn = b.finish()
        schedule_function(fn)
        kinds = [i.kind for i in fn.entry.instructions]
        store_positions = [k for k in kinds if k in (OpKind.STORE, OpKind.LOAD)]
        assert store_positions == [OpKind.STORE, OpKind.LOAD, OpKind.STORE]

    def test_terminator_stays_last(self):
        fn = build_mac_kernel()
        schedule_function(fn)
        for block in fn.blocks:
            for i, instr in enumerate(block.instructions):
                if instr.is_terminator:
                    assert i == len(block.instructions) - 1

    def test_anti_dependency_respected(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        y = b.arith("fneg", x)   # reads x
        b.loadimm(x, 2.0)        # redefines x: must stay after the read
        z = b.arith("fadd", x, y)
        b.ret(z)
        fn = b.finish()
        reference = fn.clone()
        schedule_function(fn)
        assert observably_equivalent(reference, fn)

    def test_semantics_preserved_on_kernel(self):
        fn = build_mac_kernel()
        reference = fn.clone()
        schedule_function(fn)
        verify_function(fn)
        assert observably_equivalent(reference, fn)


class TestPressureHeuristic:
    def test_killing_ops_scheduled_eagerly(self):
        """A value's last use should move toward its def, shortening the
        live range (or at least not lengthening pressure)."""
        b = IRBuilder("f")
        values = [b.const(float(i)) for i in range(6)]
        # Consume them pairwise, but interleaved with fresh productions.
        acc = b.const(0.0)
        t1 = b.arith("fadd", values[0], values[1])
        t2 = b.arith("fadd", values[2], values[3])
        t3 = b.arith("fadd", values[4], values[5])
        b.arith_into(acc, "fadd", acc, t1)
        b.arith_into(acc, "fadd", acc, t2)
        b.arith_into(acc, "fadd", acc, t3)
        b.ret(acc)
        fn = b.finish()
        before = LiveIntervals.build(fn).max_pressure()
        schedule_function(fn)
        after = LiveIntervals.build(fn).max_pressure()
        assert after <= before

    def test_all_instructions_kept(self):
        fn = build_mac_kernel()
        count = fn.instruction_count()
        result = schedule_function(fn)
        assert fn.instruction_count() == count
        assert result.blocks_scheduled == len(fn.blocks)

    def test_stable_on_second_run(self):
        fn = build_mac_kernel()
        schedule_function(fn)
        snapshot = [repr(i) for __, i in fn.instructions()]
        schedule_function(fn)
        assert [repr(i) for __, i in fn.instructions()] == snapshot


def _first_reverting_ir() -> str:
    """The IR of the first SPECfp function whose schedule is reverted."""
    for program in specfp_suite(scale=0.02).programs:
        for fn in program.functions():
            ir = print_function(fn)
            if schedule_function(parse_function(ir)).reverted:
                return ir
    raise AssertionError("no SPECfp function reverts its schedule")


class TestRevert:
    def test_revert_keeps_the_pre_schedule_analyses(self):
        """A revert restores the instructions the first lowering was built
        from, so the lowering and intervals come back without a rebuild
        and equal a fresh build of the restored function."""
        fn = parse_function(_first_reverting_ir())
        am = AnalysisManager(fn)
        flat = am.get(FlatIRAnalysis)
        intervals = am.get(LiveIntervalsAnalysis)
        snapshot = [repr(i) for __, i in fn.instructions()]

        assert schedule_function(fn, am).reverted
        assert [repr(i) for __, i in fn.instructions()] == snapshot
        assert am.get(FlatIRAnalysis) is flat
        assert am.get(LiveIntervalsAnalysis) is intervals
        # One build before the schedule and one for the after-probe; the
        # revert itself builds nothing.
        for analysis in (FlatIRAnalysis, LiveIntervalsAnalysis):
            assert am.counter(analysis).misses == 2, analysis.name()

        fresh = FlatFunction(fn)
        for name in FlatFunction.__slots__:
            if name not in ("function", "_live", "_uses_of"):
                assert getattr(flat, name) == getattr(fresh, name), name
        assert raised_liveness(flat) == reference_liveness(fn)
        assert intervals.intervals == reference_intervals(fn)
