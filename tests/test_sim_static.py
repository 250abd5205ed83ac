"""Tests for static conflict statistics."""

from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir import instruction as ins
from repro.ir import parse_function
from repro.ir.types import PhysicalRegister
from repro.sim import analyze_static, count_conflict_relevant, instruction_hazards

P = PhysicalRegister


class TestInstructionBankConflicts:
    def test_same_bank_pair_conflicts(self):
        rf = BankedRegisterFile(8, 2)
        i = ins.arith("fadd", P(4), P(0), P(2))  # banks 0, 0
        assert instruction_hazards(i, rf).conflicts == 1

    def test_cross_bank_pair_clean(self):
        rf = BankedRegisterFile(8, 2)
        i = ins.arith("fadd", P(4), P(0), P(1))  # banks 0, 1
        assert instruction_hazards(i, rf).conflicts == 0

    def test_three_same_bank_reads_cost_two(self):
        rf = BankedRegisterFile(16, 2)
        i = ins.arith("fmadd", P(1), P(0), P(2), P(4))  # all bank 0
        assert instruction_hazards(i, rf).conflicts == 2

    def test_two_pairs_in_two_banks(self):
        rf = BankedRegisterFile(16, 2)
        # fmadd with a 4th operand is unusual; simulate with a synthetic op.
        from repro.ir.instruction import Instruction, OpKind

        i = Instruction("quad", OpKind.ARITH, (P(8),), (P(0), P(2), P(1), P(3)))
        assert instruction_hazards(i, rf).conflicts == 2  # (0,2) and (1,3)

    def test_repeated_register_is_one_port(self):
        rf = BankedRegisterFile(8, 2)
        i = ins.arith("fmul", P(4), P(0), P(0))
        assert instruction_hazards(i, rf).conflicts == 0

    def test_defs_do_not_conflict(self):
        rf = BankedRegisterFile(8, 2)
        i = ins.arith("fadd", P(0), P(1), P(2))  # def bank irrelevant
        assert instruction_hazards(i, rf).conflicts == 0

    def test_virtual_operands_ignored(self):
        from repro.ir.types import VirtualRegister

        rf = BankedRegisterFile(8, 2)
        i = ins.arith("fadd", P(4), VirtualRegister(0), P(2))
        assert instruction_hazards(i, rf).conflicts == 0


class TestSubgroupViolations:
    def test_misaligned_operands(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        i = ins.arith("fadd", P(1), P(5), P(10))  # subgroups 1, 1, 2
        assert instruction_hazards(i, rf).violations == 1
        # A flat file decodes every register to subgroup 0.
        assert instruction_hazards(i, BankedRegisterFile(16, 2)).violations == 0

    def test_aligned_operands(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        i = ins.arith("fadd", P(1), P(5), P(13))  # subgroups all 1
        assert instruction_hazards(i, rf).violations == 0

    def test_three_distinct_subgroups(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        i = ins.arith("fadd", P(0), P(1), P(2))  # subgroups 0, 1, 2
        assert instruction_hazards(i, rf).violations == 2

    def test_copies_exempt(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        i = ins.copy(P(0), P(1))  # different subgroups, still fine
        assert instruction_hazards(i, rf).violations == 0

    def test_loads_exempt(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        i = ins.load(P(1), spill_slot=0)
        assert instruction_hazards(i, rf).violations == 0


class TestAnalyzeStatic:
    def allocated_function(self):
        return parse_function(
            """
            func @f {
            block entry:
              $fp0 = li #1.0
              $fp2 = li #2.0
              $fp1 = li #3.0
              $fp4 = fadd $fp0, $fp2
              $fp5 = fadd $fp0, $fp1
              ret $fp4
            }
            """
        )

    def test_counts(self):
        rf = BankedRegisterFile(8, 2)
        stats = analyze_static(self.allocated_function(), rf)
        assert stats.instructions == 6
        assert stats.conflict_relevant == 2
        assert stats.bank_conflicts == 1       # fp0+fp2 same bank
        assert stats.conflicting_instructions == 1
        assert stats.subgroup_violations == 0

    def test_conflict_free_classification(self):
        rf = BankedRegisterFile(8, 2)
        stats = analyze_static(self.allocated_function(), rf)
        assert stats.is_conflict_relevant and not stats.is_conflict_free

    def test_weighted_conflicts_use_frequency(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              $fp0 = li #1.0
              $fp2 = li #2.0
              jmp l.header
            block l.header [trip=10]:
              $fp4 = fadd $fp0, $fp2
              br l.header prob=0.9
            block l.exit:
              ret
            }
            """
        )
        rf = BankedRegisterFile(8, 2)
        stats = analyze_static(fn, rf)
        assert stats.bank_conflicts == 1
        assert stats.weighted_conflicts == 10.0


class TestCountConflictRelevant:
    def test_counts_on_virtual_ir(self):
        fn = parse_function(
            """
            func @f {
            block entry:
              %v0:fp = li #1.0
              %v1:fp = li #2.0
              %v2:fp = fadd %v0:fp, %v1:fp
              %v3:fp = fneg %v2:fp
              ret %v3:fp
            }
            """
        )
        assert count_conflict_relevant(fn) == 1
