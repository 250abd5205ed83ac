"""Tests for the DSA VLIW cycle model."""

import pytest

from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir import parse_function
from repro.ir.types import PhysicalRegister
from repro.sim import DsaMachine

P = PhysicalRegister


def dsa():
    return BankSubgroupRegisterFile(16, 2, 4)


class TestBundling:
    def test_independent_cross_bank_ops_share_bundle(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              $fp8 = fadd $fp0, $fp4
              $fp9 = fadd $fp1, $fp5
              ret
            }
            """
        )
        machine = DsaMachine(dsa())
        bundles = machine.bundle_block(fn.entry)
        # fadd1 reads banks {0,1}; fadd2 reads banks {0,1}: same-bank clash
        # -> cannot bundle.  Check the constraint applies.
        assert len(bundles[0]) == 1

    def test_disjoint_bank_ops_bundle(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              $fp8 = fneg $fp0
              $fp9 = fneg $fp4
              ret
            }
            """
        )
        machine = DsaMachine(dsa())
        bundles = machine.bundle_block(fn.entry)
        # fp0 is bank 0, fp4 is bank 1: one read each, no clash.
        assert len(bundles[0]) == 2
        # fadd serializes on bank 0 by itself; the bank-1 read adds no
        # wave to the bundle's read, so it still joins.
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp8 = fadd $fp0, $fp1\n"
            "  $fp9 = fneg $fp4\n  ret\n}"
        )
        assert len(machine.bundle_block(fn.entry)[0]) == 2

    def test_dependent_ops_not_bundled(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              $fp8 = fneg $fp0
              $fp9 = fneg $fp8
              ret
            }
            """
        )
        machine = DsaMachine(dsa())
        bundles = machine.bundle_block(fn.entry)
        assert len(bundles[0]) == 1

    def test_issue_width_limits(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              $fp8 = li #1.0
              $fp9 = li #2.0
              $fp10 = li #3.0
              ret
            }
            """
        )
        machine = DsaMachine(dsa())
        bundles = machine.bundle_block(fn.entry)
        assert max(len(b) for b in bundles) <= 2

    def test_terminator_gets_own_bundle(self):
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp8 = li #1.0\n  ret\n}"
        )
        machine = DsaMachine(dsa())
        bundles = machine.bundle_block(fn.entry)
        assert bundles[-1][0].kind.value == "ret"


class TestCycleModel:
    def test_conflict_penalty_counted(self):
        clean = parse_function(
            "func @f {\nblock entry:\n  $fp8 = fadd $fp0, $fp4\n  ret\n}"
        )
        # fp0 and fp8 share bank 0 *and* subgroup 0: pure bank conflict.
        dirty = parse_function(
            "func @f {\nblock entry:\n  $fp8 = fadd $fp0, $fp8\n  ret\n}"
        )
        machine = DsaMachine(dsa())
        assert machine.run(dirty).cycles == machine.run(clean).cycles + 1

    def test_alignment_penalty_counted(self):
        aligned = parse_function(
            "func @f {\nblock entry:\n  $fp9 = fadd $fp1, $fp5\n  ret\n}"
        )
        misaligned = parse_function(
            "func @f {\nblock entry:\n  $fp10 = fadd $fp1, $fp6\n  ret\n}"
        )
        machine = DsaMachine(dsa())
        clean_report = machine.run(aligned)
        dirty_report = machine.run(misaligned)
        assert dirty_report.alignment_penalty_cycles > clean_report.alignment_penalty_cycles

    def test_plain_banked_file_has_no_alignment_penalty(self):
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp10 = fadd $fp1, $fp6\n  ret\n}"
        )
        machine = DsaMachine(BankedRegisterFile(16, 2))
        assert machine.run(fn).alignment_penalty_cycles == 0

    def test_loop_frequency_scales_cycles(self):
        body = """
            func @f {{
            block entry:
              $fp0 = li #1.0
              jmp l.header
            block l.header [trip={t}]:
              $fp8 = fneg $fp0
              br l.header prob={p}
            block l.exit:
              ret
            }}
        """
        machine = DsaMachine(dsa())
        short = machine.run(parse_function(body.format(t=2, p=0.5)))
        long = machine.run(parse_function(body.format(t=20, p=0.95)))
        assert long.cycles > short.cycles * 5

    def test_spill_code_counted(self):
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp8 = li #1.0\n  ret\n}"
        )
        from repro.ir import instruction as ins

        fn.entry.insert(1, ins.store(P(8), spill_slot=0, spill=True))
        fn.entry.insert(2, ins.load(P(9), spill_slot=0, spill=True))
        machine = DsaMachine(dsa())
        report = machine.run(fn)
        assert report.spill_instructions == 2
        assert report.memory_penalty_cycles > 0

    def test_copies_counted(self):
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp8 = li #1.0\n  $fp9 = mov $fp8\n  ret\n}"
        )
        machine = DsaMachine(dsa())
        assert machine.run(fn).copy_instructions == 1
