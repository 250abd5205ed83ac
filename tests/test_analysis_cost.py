"""Tests for Eq. 1 / Eq. 2 conflict cost estimation."""

import pytest

from repro.analysis import ConflictCostModel
from repro.ir import IRBuilder
from tests.conftest import build_nested_loops


def kernel_with_known_costs():
    """acc = acc + x at depth 0; t = x*y at depth 1 (trip 8); u = t*acc at
    depth 2 (trip 8*4=32)."""
    b = IRBuilder("k")
    x, y = b.const(1.0), b.const(2.0)
    acc = b.const(0.0)
    b.arith_into(acc, "fadd", acc, x)          # freq 1
    with b.loop(trip_count=8):
        t = b.arith("fmul", x, y)              # freq 8
        with b.loop(trip_count=4):
            b.arith_into(acc, "fmul", t, acc)  # freq 32
    b.ret(acc)
    return b.finish(), x, y, acc


class TestCostI:
    def test_instruction_cost_is_trip_product(self):
        fn, *_ = kernel_with_known_costs()
        cm = ConflictCostModel.build(fn)
        costs = sorted(
            cm.cost_of_instruction(i)
            for __, i in fn.instructions()
            if i.is_conflict_relevant()
        )
        assert costs == [1.0, 8.0, 32.0]

    def test_straight_line_cost_one(self):
        b = IRBuilder("f")
        x, y = b.const(1.0), b.const(2.0)
        i = b.arith("fadd", x, y)
        b.ret(i)
        fn = b.finish()
        cm = ConflictCostModel.build(fn)
        relevant = next(i for __, i in fn.instructions() if i.is_conflict_relevant())
        assert cm.cost_of_instruction(relevant) == 1.0


class TestCostR:
    def test_register_cost_sums_accesses(self):
        fn, x, y, acc = kernel_with_known_costs()
        cm = ConflictCostModel.build(fn)
        # x is read by the depth-0 fadd (1) and the depth-1 fmul (8).
        assert cm.cost_of_register(x) == pytest.approx(9.0)
        # y only by the depth-1 fmul.
        assert cm.cost_of_register(y) == pytest.approx(8.0)
        # acc by the depth-0 fadd (1) and depth-2 fmul (32).
        assert cm.cost_of_register(acc) == pytest.approx(33.0)

    def test_irrelevant_register_has_zero_cost(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        t = b.arith("fneg", x)  # unary: not conflict-relevant
        b.ret(t)
        fn = b.finish()
        cm = ConflictCostModel.build(fn)
        assert cm.cost_of_register(x) == 0.0

    def test_all_access_mode(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        t = b.arith("fneg", x)
        b.ret(t)
        fn = b.finish()
        cm = ConflictCostModel.build(fn, conflict_relevant_only=False)
        assert cm.cost_of_register(x) > 0.0


class TestSpillWeight:
    def test_hot_register_weighs_more(self):
        fn, x, y, acc = kernel_with_known_costs()
        cm = ConflictCostModel.build(fn)
        assert cm.spill_weight(acc, 10) > cm.spill_weight(y, 10)

    def test_longer_interval_weighs_less(self):
        fn, x, *_ = kernel_with_known_costs()
        cm = ConflictCostModel.build(fn)
        assert cm.spill_weight(x, 100) < cm.spill_weight(x, 10)

    def test_access_cost_counts_defs(self):
        fn, x, y, acc = kernel_with_known_costs()
        cm = ConflictCostModel.build(fn)
        # acc: def (li) + fadd def&use + 32x fmul def&use.
        assert cm.access_cost(acc) > cm.cost_of_register(acc)


class TestTotalPotentialCost:
    """The scalar fast path must agree with the full model exactly."""

    def test_matches_full_model_on_known_kernel(self):
        from repro.analysis.cost import total_potential_cost

        fn, *_ = kernel_with_known_costs()
        assert total_potential_cost(fn) == ConflictCostModel.build(fn).total_cost()

    def test_matches_full_model_on_nested_loops(self):
        from repro.analysis.cost import total_potential_cost

        fn = build_nested_loops((3, 5))
        assert total_potential_cost(fn) == ConflictCostModel.build(fn).total_cost()
