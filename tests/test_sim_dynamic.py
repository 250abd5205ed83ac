"""Tests for the dynamic simulator and the flow-equation estimator."""

import pytest

from repro.banks import BankedRegisterFile
from repro.ir import IRBuilder, parse_function
from repro.sim import (
    DynamicSimulator,
    estimate_dynamic_conflicts,
    expected_block_frequencies,
)
from tests.conftest import build_mac_kernel, build_nested_loops


def conflicted_loop(trip=10):
    """Physical-register loop with one conflicting instruction."""
    return parse_function(
        f"""
        func @f {{
        block entry:
          $fp0 = li #1.0
          $fp2 = li #2.0
          jmp l.header
        block l.header [trip={trip}]:
          $fp4 = fadd $fp0, $fp2
          br l.header prob={1 - 1/trip}
        block l.exit:
          ret
        }}
        """
    )


def _mark_latch(fn):
    """parse_function does not tag latches; set the attribute by shape."""
    for block in fn.blocks:
        term = block.terminator
        if term is not None and term.kind.value == "branch":
            target = term.attrs["target"]
            if fn.block(target).attrs.get("loop_header"):
                term.attrs["loop_latch"] = True
    return fn


class TestInterpreter:
    def test_loop_executes_trip_count_times(self):
        fn = _mark_latch(conflicted_loop(10))
        rf = BankedRegisterFile(8, 2)
        stats = DynamicSimulator(rf).run(fn)
        assert stats.dynamic_conflicts == 10
        assert stats.executed_conflict_relevant == 10

    def test_trip_one_runs_once(self):
        fn = _mark_latch(conflicted_loop(1))
        rf = BankedRegisterFile(8, 2)
        assert DynamicSimulator(rf).run(fn).dynamic_conflicts == 1

    def test_nested_trip_products(self):
        b = IRBuilder("f")
        acc = b.const(0.0)
        x = b.const(1.0)
        with b.loop(trip_count=3):
            with b.loop(trip_count=4):
                b.arith_into(acc, "fadd", acc, x)
        b.ret(acc)
        fn = b.finish()
        # Rewrite to physical registers via pipeline for conflict decode.
        from repro.prescount import PipelineConfig, run_pipeline

        rf = BankedRegisterFile(8, 2)
        res = run_pipeline(fn, PipelineConfig(rf, "non"))
        stats = DynamicSimulator(rf).run(res.function)
        # The inner op executes 12 times whatever its conflict status.
        assert stats.executed_conflict_relevant in (0, 12)

    def test_branches_follow_seeded_rng(self):
        b = IRBuilder("f")
        acc = b.const(0.0)
        x = b.const(1.0)
        with b.loop(trip_count=50):
            with b.if_then(taken_prob=0.5):
                b.arith_into(acc, "fadd", acc, x)
        b.ret(acc)
        fn = b.finish()
        rf = BankedRegisterFile(8, 2)
        a = DynamicSimulator(rf, seed=1).run(fn)
        b2 = DynamicSimulator(rf, seed=1).run(fn)
        c = DynamicSimulator(rf, seed=2).run(fn)
        assert a.executed_instructions == b2.executed_instructions
        # Different seeds usually take different paths.
        assert a.executed_instructions != c.executed_instructions

    def test_execution_budget_truncates(self):
        fn = _mark_latch(conflicted_loop(10))
        rf = BankedRegisterFile(8, 2)
        stats = DynamicSimulator(rf, max_instructions=5).run(fn)
        assert stats.truncated


class TestExpectedFrequencies:
    def test_loop_frequency_is_trip_count(self):
        fn = build_nested_loops((4, 8))
        freqs = expected_block_frequencies(fn)
        assert max(freqs.values()) == pytest.approx(32.0, rel=1e-6)
        assert freqs["entry"] == pytest.approx(1.0)

    def test_branch_probabilities_split_flow(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        with b.if_then(taken_prob=0.25):
            b.arith("fneg", x)
        b.ret(x)
        fn = b.finish()
        freqs = expected_block_frequencies(fn)
        then = next(l for l in freqs if l.endswith(".then"))
        join = next(l for l in freqs if l.endswith(".join"))
        assert freqs[then] == pytest.approx(0.25)
        assert freqs[join] == pytest.approx(1.0)

    def test_exit_frequencies_follow_nesting(self):
        fn = build_nested_loops((4, 8))
        freqs = expected_block_frequencies(fn)
        # The inner loop's exit runs once per outer iteration; the outer
        # loop's exit exactly once.
        assert freqs["loop2.exit"] == pytest.approx(4.0, rel=1e-6)
        assert freqs["loop1.exit"] == pytest.approx(1.0, rel=1e-6)


class TestEstimatorVsInterpreter:
    def test_exact_match_on_branch_free_code(self):
        fn = _mark_latch(conflicted_loop(10))
        rf = BankedRegisterFile(8, 2)
        interp = DynamicSimulator(rf).run(fn)
        est = estimate_dynamic_conflicts(fn, rf)
        assert est.dynamic_conflicts == interp.dynamic_conflicts
        assert est.executed_conflict_relevant == interp.executed_conflict_relevant

    def test_close_on_branchy_code(self):
        from repro.prescount import PipelineConfig, run_pipeline

        fn = build_mac_kernel(n_pairs=4, trip_count=100)
        rf = BankedRegisterFile(8, 2)
        res = run_pipeline(fn, PipelineConfig(rf, "non"))
        interp = DynamicSimulator(rf).run(res.function)
        est = estimate_dynamic_conflicts(res.function, rf)
        if interp.dynamic_conflicts:
            ratio = est.dynamic_conflicts / interp.dynamic_conflicts
            assert 0.8 < ratio < 1.2


class TestConflictingSites:
    def test_sites_counted_once_per_instruction(self):
        fn = _mark_latch(conflicted_loop(10))
        rf = BankedRegisterFile(8, 2)
        stats = DynamicSimulator(rf).run(fn)
        # One conflicting instruction, executed 10 times: 10 instances but
        # a single site.
        assert stats.dynamic_conflicts == 10
        assert stats.conflicting_sites == 1

    def test_estimator_site_agreement(self):
        fn = _mark_latch(conflicted_loop(10))
        rf = BankedRegisterFile(8, 2)
        est = estimate_dynamic_conflicts(fn, rf)
        assert est.conflicting_sites == pytest.approx(1.0)

    def test_cold_block_sites_fractional(self):
        """A conflict site behind a 25% branch counts ~0.25 expected."""
        fn = parse_function(
            """
            func @f {
            block entry:
              $fp0 = li #1.0
              $fp2 = li #2.0
              br cold.then prob=0.25
            block cold.cont:
              jmp cold.join
            block cold.then:
              $fp4 = fadd $fp0, $fp2
              jmp cold.join
            block cold.join:
              ret
            }
            """
        )
        rf = BankedRegisterFile(8, 2)
        est = estimate_dynamic_conflicts(fn, rf)
        assert est.conflicting_sites == pytest.approx(0.25)
