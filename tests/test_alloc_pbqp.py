"""Tests for the bank-aware PBQP allocator."""

import hashlib
import importlib.util
import pathlib

import pytest

from repro.alloc import PbqpAllocator
from repro.analysis import InterferenceGraph, LiveIntervals
from repro.banks import BankedRegisterFile
from repro.ir import print_function
from repro.ir.types import FP, VirtualRegister
from repro.prescount import PresCountBankAssigner
from repro.sim import analyze_static, observably_equivalent
from tests.conftest import build_mac_kernel


def remaining_vregs(function):
    return [
        r
        for __, i in function.instructions()
        for r in i.regs()
        if isinstance(r, VirtualRegister) and r.regclass == FP
    ]


class TestBasics:
    def test_all_rewritten(self, rf_rv2):
        result = PbqpAllocator(rf_rv2).run(build_mac_kernel())
        assert remaining_vregs(result.function) == []

    def test_no_spill_when_roomy(self, rf_rv2):
        result = PbqpAllocator(rf_rv2).run(build_mac_kernel())
        assert result.spill_count == 0

    def test_interference_respected(self, rf_rv2):
        fn = build_mac_kernel()
        result = PbqpAllocator(rf_rv2).run(fn)
        rig = InterferenceGraph.build(fn)
        for a in rig.nodes():
            for b in rig.neighbors(a):
                if a in result.assignment and b in result.assignment:
                    assert result.assignment[a] != result.assignment[b]

    def test_semantics_preserved(self, rf_rv2):
        fn = build_mac_kernel(n_pairs=6)
        result = PbqpAllocator(rf_rv2).run(fn)
        assert observably_equivalent(fn, result.function)

    def test_spills_under_pressure_with_semantics(self):
        rf = BankedRegisterFile(8, 2)
        fn = build_mac_kernel(n_pairs=10)
        result = PbqpAllocator(rf).run(fn)
        assert result.spill_count > 0
        assert observably_equivalent(fn, result.function)

    def test_input_untouched(self, rf_rv2):
        fn = build_mac_kernel()
        PbqpAllocator(rf_rv2).run(fn)
        assert remaining_vregs(fn)


class TestBankAwareness:
    def test_quadratic_terms_remove_conflicts(self, rf_rv2):
        fn = build_mac_kernel(n_pairs=6)
        aware = PbqpAllocator(rf_rv2, bank_conflict_weight=1.0).run(fn)
        blind = PbqpAllocator(rf_rv2, bank_conflict_weight=0.0).run(fn)
        aware_conflicts = analyze_static(aware.function, rf_rv2).bank_conflicts
        blind_conflicts = analyze_static(blind.function, rf_rv2).bank_conflicts
        assert aware_conflicts <= blind_conflicts
        assert aware_conflicts == 0

    def test_prescount_assignment_integrates(self, rf_rv2):
        """Feeding Algorithm 1's decision as linear nudges steers PBQP."""
        fn = build_mac_kernel(n_pairs=4)
        assignment = PresCountBankAssigner(rf_rv2).assign(fn)
        result = PbqpAllocator(
            rf_rv2, bank_conflict_weight=0.0, bank_assignment=assignment
        ).run(fn)
        agreements = sum(
            1
            for vreg, preg in result.assignment.items()
            if assignment.bank_of(vreg) is not None
            and rf_rv2.bank_of(preg) == assignment.bank_of(vreg)
        )
        assert agreements >= len(result.assignment) * 0.7

    def test_domain_truncation_keeps_all_banks(self):
        rf = BankedRegisterFile(1024, 4)
        allocator = PbqpAllocator(rf, max_registers_per_node=16)
        domain = allocator._domain()
        assert len(domain) == 16
        assert {rf.bank_of(r) for r in domain} == {0, 1, 2, 3}

    def test_large_file_allocation(self):
        rf = BankedRegisterFile(1024, 2)
        fn = build_mac_kernel(n_pairs=8)
        result = PbqpAllocator(rf).run(fn)
        assert result.spill_count == 0
        assert analyze_static(result.function, rf).bank_conflicts == 0


def ablation_kernels():
    """The 8 kernels of ``benchmarks/bench_ablation_pbqp.py``."""
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "bench_ablation_pbqp.py"
    spec = importlib.util.spec_from_file_location("bench_ablation_pbqp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.kernels()


def printed_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(print_function(result.function).encode())
    return digest.hexdigest()


class TestPinnedOutput:
    """PBQP output bytes are pinned: no other tier-1 test fixes them."""

    def test_ablation_kernels_with_and_without_bank_terms(self):
        rf = BankedRegisterFile(64, 2)
        results = [
            PbqpAllocator(rf, bank_conflict_weight=weight).run(kernel)
            for kernel in ablation_kernels()
            for weight in (1.0, 0.0)
        ]
        assert printed_digest(results) == (
            "fe4c06da60e2460dc053656bf2a27482aa991b444140dd1bad2866e18c4a51b9"
        )

    def test_spilling_kernels(self):
        rf = BankedRegisterFile(8, 2)
        results = [PbqpAllocator(rf).run(k) for k in ablation_kernels()[:4]]
        assert all(result.spill_count > 0 for result in results)
        assert printed_digest(results) == (
            "dfd8b8b9fb06f453226d259f3711e8348283a982dd1ae6e18a8744564a922ed7"
        )
