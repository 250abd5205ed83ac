"""Tests for the register-file energy model."""

import pytest

from repro.banks import BankSubgroupRegisterFile, BankedRegisterFile
from repro.ir import parse_function, instruction as ins
from repro.ir.types import PhysicalRegister as P
from repro.prescount import PipelineConfig, run_pipeline
from repro.sim import estimate_energy
from repro.workloads import reduce_unrolled_kernel
from tests.conftest import build_mac_kernel


def clean_fn():
    return parse_function(
        "func @f {\nblock entry:\n  $fp0 = li #1.0\n  $fp1 = li #2.0\n"
        "  $fp2 = fadd $fp0, $fp1\n  ret $fp2\n}"
    )


class TestComponents:
    def test_accesses_counted(self):
        rf = BankedRegisterFile(8, 2)  # fp0/fp1 sit in different banks
        report = estimate_energy(clean_fn(), rf)
        # li defs (2) + fadd (2 reads + 1 def) + ret read = 6 accesses,
        # each at the 2-bank per-access cost of 1.05.
        assert report.access_energy == pytest.approx(6 * 1.05)
        assert report.conflict_energy == 0.0

    def test_conflict_energy(self):
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp0 = li #1.0\n  $fp2 = li #2.0\n"
            "  $fp4 = fadd $fp0, $fp2\n  ret $fp4\n}"
        )
        rf = BankedRegisterFile(8, 2)  # fp0/fp2 share bank 0
        report = estimate_energy(fn, rf)
        assert report.conflict_energy == pytest.approx(1.5)

    def test_bank_scaling_raises_access_cost(self):
        fn = clean_fn()
        one = estimate_energy(fn, BankedRegisterFile(16, 1)).access_energy
        sixteen = estimate_energy(fn, BankedRegisterFile(16, 16)).access_energy
        assert sixteen > one

    def test_alignment_energy_dsa_only(self):
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp10 = fadd $fp1, $fp6\n  ret\n}"
        )
        dsa = BankSubgroupRegisterFile(16, 2, 4)
        plain = BankedRegisterFile(16, 2)
        assert estimate_energy(fn, dsa).alignment_energy > 0
        assert estimate_energy(fn, plain).alignment_energy == 0.0

    def test_spill_energy(self):
        fn = clean_fn()
        fn.entry.insert(1, ins.store(P(0), spill_slot=0, spill=True))
        fn.entry.insert(2, ins.load(P(3), spill_slot=0, spill=True))
        report = estimate_energy(fn, BankedRegisterFile(8, 2))
        assert report.spill_energy == pytest.approx(20.0)

    def test_loop_frequency_weights(self):
        fn = parse_function(
            "func @f {\nblock entry:\n  $fp0 = li #1.0\n  jmp l.header\n"
            "block l.header [trip=10]:\n  $fp1 = fneg $fp0\n"
            "  br l.header prob=0.9\nblock l.exit:\n  ret\n}"
        )
        report = estimate_energy(fn, BankedRegisterFile(8, 2))
        # 1 li + 10 x (1 read + 1 def) = 21 accesses x 1.05 per-access.
        assert report.access_energy == pytest.approx(21 * 1.05)


class TestMethodComparison:
    def test_bpc_saves_conflict_energy(self):
        fn = build_mac_kernel(n_pairs=6)
        rf = BankedRegisterFile(32, 2)
        non = run_pipeline(fn, PipelineConfig(rf, "non"))
        bpc = run_pipeline(fn, PipelineConfig(rf, "bpc"))
        e_non = estimate_energy(non.function, rf)
        e_bpc = estimate_energy(bpc.function, rf)
        assert e_bpc.conflict_energy < e_non.conflict_energy
        assert e_bpc.total < e_non.total

    def test_software_beats_hardware_scaling(self):
        """The paper's efficiency argument: 2 banks + bpc burns less
        register-file energy than 16 banks + non on a reduction kernel."""
        fn = reduce_unrolled_kernel()
        soft_rf = BankedRegisterFile(1024, 2)
        hard_rf = BankedRegisterFile(1024, 16)
        soft = run_pipeline(fn, PipelineConfig(soft_rf, "bpc"))
        hard = run_pipeline(fn, PipelineConfig(hard_rf, "non"))
        e_soft = estimate_energy(soft.function, soft_rf)
        e_hard = estimate_energy(hard.function, hard_rf)
        assert e_soft.total < e_hard.total
