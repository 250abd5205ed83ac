"""Tests for Function and Module containers."""

import pytest

from repro.ir import CFG, Function, Module, instruction as ins
from repro.ir.types import FP, GP, VirtualRegister
from tests.conftest import build_mac_kernel

V = VirtualRegister


class TestBlocks:
    def test_add_block_unique_labels(self):
        fn = Function("f")
        fn.add_block("a")
        with pytest.raises(ValueError):
            fn.add_block("a")

    def test_block_lookup(self):
        fn = Function("f")
        blk = fn.add_block("a")
        assert fn.block("a") is blk
        with pytest.raises(KeyError):
            fn.block("missing")

    def test_entry_is_first_block(self):
        fn = Function("f")
        a = fn.add_block("a")
        fn.add_block("b")
        assert fn.entry is a

    def test_entry_of_empty_function_raises(self):
        with pytest.raises(ValueError):
            Function("f").entry

    def test_next_label(self):
        fn = Function("f")
        fn.add_block("a")
        fn.add_block("b")
        assert CFG.build(fn).fallthrough == {"a": "b", "b": None}

    def test_successors_resolve_blocks(self):
        fn = build_mac_kernel()
        cfg = CFG.build(fn)
        for block in fn.blocks:
            for succ in cfg.succs[block.label]:
                assert cfg.block(succ) in fn.blocks


class TestRegisters:
    def test_virtual_registers_first_appearance_order(self):
        fn = Function("f")
        blk = fn.add_block("entry")
        blk.append(ins.arith("fadd", V(5), V(3), V(7)))
        blk.append(ins.ret())
        regs = fn.virtual_registers()
        assert [r.vid for r in regs] == [3, 7, 5]  # uses before defs

    def test_virtual_registers_filter_class(self):
        fn = Function("f")
        blk = fn.add_block("entry")
        gp = VirtualRegister(1, GP)
        blk.append(ins.arith("fadd", V(0), gp, V(2)))
        blk.append(ins.ret())
        assert gp not in fn.virtual_registers(FP)
        assert gp in fn.virtual_registers(GP)

    def test_new_vreg_unique_after_parse(self):
        fn = build_mac_kernel()
        existing = {r.vid for r in fn.virtual_registers()}
        fresh = fn.new_vreg()
        assert fresh.vid not in existing

    def test_rewrite_registers(self):
        fn = Function("f")
        blk = fn.add_block("entry")
        blk.append(ins.arith("fadd", V(0), V(1), V(2)))
        blk.append(ins.ret(V(0)))
        fn.rewrite_registers({V(0): V(9)})
        assert V(9) in fn.virtual_registers()
        assert V(0) not in fn.virtual_registers()


class TestClone:
    def test_clone_is_deep(self):
        fn = build_mac_kernel()
        copy = fn.clone()
        copy.entry.instructions.clear()
        assert len(fn.entry.instructions) > 0

    def test_clone_preserves_structure(self):
        from repro.ir import print_function

        fn = build_mac_kernel()
        assert print_function(fn.clone()) == print_function(fn)

    def test_clone_vreg_factory_independent(self):
        fn = build_mac_kernel()
        copy = fn.clone()
        a = fn.new_vreg()
        b = copy.new_vreg()
        assert a.vid == b.vid  # same starting point, separate counters


class TestModule:
    def test_add_and_lookup(self):
        m = Module("m")
        fn = build_mac_kernel()
        m.add(fn)
        assert m.function("mac") is fn
        with pytest.raises(KeyError):
            m.function("nope")

    def test_iteration_and_len(self):
        m = Module("m")
        m.add(build_mac_kernel())
        assert len(m) == 1
        assert [f.name for f in m] == ["mac"]
