"""Tests for block-level liveness dataflow: the lowering's per-block
masks (``FlatFunction.liveness_masks``), raised to register sets."""

from types import SimpleNamespace

from repro.ir import IRBuilder, parse_function
from repro.ir.flat import FlatFunction
from tests.conftest import build_mac_kernel, build_nested_loops
from tests.reference_analyses import raised_liveness


def liveness(fn) -> SimpleNamespace:
    """``gen``/``kill``/``live_in``/``live_out``: label -> register set."""
    return SimpleNamespace(**raised_liveness(FlatFunction(fn)))


def live_across(lv, register) -> list[str]:
    """Labels of blocks where *register* is live on entry."""
    return [label for label, regs in lv.live_in.items() if register in regs]


class TestStraightLine:
    def test_dead_after_last_use(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              %v1:fp = fneg %v0:fp
              jmp next
            block next:
              ret %v1:fp
            }
            """
        )
        lv = liveness(fn)
        v0 = next(r for r in fn.virtual_registers() if r.vid == 0)
        v1 = next(r for r in fn.virtual_registers() if r.vid == 1)
        assert v0 not in lv.live_out["entry"]
        assert v1 in lv.live_out["entry"]
        assert v1 in lv.live_in["next"]

    def test_entry_has_no_live_in(self):
        fn = build_mac_kernel()
        lv = liveness(fn)
        assert lv.live_in["entry"] == frozenset()


class TestLoops:
    def test_loop_carried_value_live_at_header(self):
        fn = build_mac_kernel()
        lv = liveness(fn)
        header = next(b.label for b in fn.blocks if b.attrs.get("loop_header"))
        # The accumulator and all inputs are live into the header.
        assert len(lv.live_in[header]) >= 9  # 4 xs + 4 ys + acc

    def test_loop_invariant_live_through_nest(self):
        fn = build_nested_loops((2, 2))
        lv = liveness(fn)
        x = next(r for r in fn.virtual_registers() if r.vid == 0)
        for block in fn.blocks:
            if block.attrs.get("loop_header"):
                assert x in lv.live_in[block.label]

    def test_value_dead_after_loop(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        acc = b.const(0.0)
        with b.loop(trip_count=2):
            b.arith_into(acc, "fadd", acc, x)
        b.ret(acc)
        fn = b.finish()
        lv = liveness(fn)
        exit_label = next(bl.label for bl in fn.blocks if "exit" in bl.label)
        assert x not in lv.live_out[exit_label]
        assert acc in lv.live_in[exit_label]


class TestGenKill:
    def test_gen_is_upward_exposed_only(self):
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
        lv = liveness(fn)
        # v0 is defined before its use: not upward-exposed.
        assert all(r.vid != 0 for r in lv.gen["entry"])
        assert {r.vid for r in lv.kill["entry"]} == {0, 1}

    def test_use_before_redef_is_gen(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              jmp body
            block body:
              %v1:fp = fneg %v0:fp
              %v0:fp = li #2.0
              ret %v0:fp
            }
            """
        )
        lv = liveness(fn)
        assert any(r.vid == 0 for r in lv.gen["body"])
        assert any(r.vid == 0 for r in lv.kill["body"])


class TestQueries:
    def test_live_across(self):
        fn = build_mac_kernel()
        lv = liveness(fn)
        acc = max(fn.virtual_registers(), key=lambda r: live_across(lv, r).__len__())
        assert len(live_across(lv, acc)) >= 1
