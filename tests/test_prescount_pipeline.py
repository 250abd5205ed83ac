"""Tests for the full Fig. 4 pipeline."""

import pytest

from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir import print_function
from repro.ir.types import FP, VirtualRegister
from repro.prescount import METHODS, PipelineConfig, run_pipeline
from repro.sim import analyze_static, observably_equivalent
from tests.conftest import build_mac_kernel
from repro.workloads import reduce_kernel, shared_use_kernel


class TestConfig:
    def test_unknown_method_rejected(self, rf_rv2):
        with pytest.raises(ValueError):
            PipelineConfig(rf_rv2, "magic")

    def test_dsa_inferred_from_register_file(self, rf_dsa, rf_rv2):
        assert PipelineConfig(rf_dsa, "bpc").dsa is True
        assert PipelineConfig(rf_rv2, "bpc").dsa is False

    def test_strict_defaults_follow_dsa(self, rf_dsa, rf_rv2):
        # Soft on every file: the DSA's policy never reads the flag.
        assert PipelineConfig(rf_dsa, "bpc").strict_banks is False
        assert PipelineConfig(rf_rv2, "bpc").strict_banks is False

    def test_methods_constant(self):
        assert METHODS == ("non", "bcr", "bpc")


class TestPipelineRuns:
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_complete_and_rewrite(self, rf_rv2, method):
        fn = build_mac_kernel()
        result = run_pipeline(fn, PipelineConfig(rf_rv2, method))
        leftovers = [
            r
            for __, i in result.function.instructions()
            for r in i.regs()
            if isinstance(r, VirtualRegister) and r.regclass == FP
        ]
        assert leftovers == []

    @pytest.mark.parametrize("method", METHODS)
    def test_semantics_preserved(self, rf_rv2, method):
        fn = build_mac_kernel(n_pairs=6)
        result = run_pipeline(fn, PipelineConfig(rf_rv2, method))
        assert observably_equivalent(fn, result.function)

    def test_source_function_untouched(self, rf_rv2):
        fn = build_mac_kernel()
        text_before = repr([i for __, i in fn.instructions()])
        run_pipeline(fn, PipelineConfig(rf_rv2, "bpc"))
        assert repr([i for __, i in fn.instructions()]) == text_before

    def test_bank_assignment_only_for_bpc(self, rf_rv2):
        fn = build_mac_kernel()
        assert run_pipeline(fn, PipelineConfig(rf_rv2, "non")).bank_assignment is None
        assert run_pipeline(fn, PipelineConfig(rf_rv2, "bcr")).bank_assignment is None
        assert run_pipeline(fn, PipelineConfig(rf_rv2, "bpc")).bank_assignment is not None

    def test_sdg_phase_only_on_dsa_bpc(self, rf_dsa, rf_rv2):
        fn = shared_use_kernel(consumers=12)
        assert run_pipeline(fn, PipelineConfig(rf_dsa, "bpc")).sdg_split is not None
        assert run_pipeline(fn, PipelineConfig(rf_dsa, "non")).sdg_split is None
        assert run_pipeline(fn, PipelineConfig(rf_rv2, "bpc")).sdg_split is None

    def test_phases_can_be_disabled(self, rf_rv2):
        fn = build_mac_kernel()
        config = PipelineConfig(
            rf_rv2, "bpc", run_coalescing=False, run_scheduling=False
        )
        result = run_pipeline(fn, config)
        assert result.coalescing is None


class TestMethodOrdering:
    """The paper's headline shape: non >= bcr >= bpc conflicts."""

    def test_bpc_beats_non(self, rf_rv2):
        fn = build_mac_kernel(n_pairs=6)
        non = run_pipeline(fn, PipelineConfig(rf_rv2, "non"))
        bpc = run_pipeline(fn, PipelineConfig(rf_rv2, "bpc"))
        assert (
            analyze_static(bpc.function, rf_rv2).bank_conflicts
            <= analyze_static(non.function, rf_rv2).bank_conflicts
        )

    def test_bpc_eliminates_bipartite_conflicts(self, rf_rv2):
        fn = build_mac_kernel(n_pairs=6)
        bpc = run_pipeline(fn, PipelineConfig(rf_rv2, "bpc"))
        assert analyze_static(bpc.function, rf_rv2).bank_conflicts == 0


class TestDsaPipeline:
    def test_bpc_clears_dsa_hazards(self, rf_dsa):
        fn = reduce_kernel()
        result = run_pipeline(fn, PipelineConfig(rf_dsa, "bpc"))
        stats = analyze_static(result.function, rf_dsa)
        assert stats.conflicts == 0

    def test_non_leaves_dsa_hazards(self, rf_dsa):
        fn = reduce_kernel()
        result = run_pipeline(fn, PipelineConfig(rf_dsa, "non"))
        stats = analyze_static(result.function, rf_dsa)
        assert stats.conflicts > 0

    def test_dsa_semantics_preserved(self, rf_dsa):
        fn = shared_use_kernel(consumers=12)
        result = run_pipeline(fn, PipelineConfig(rf_dsa, "bpc"))
        assert observably_equivalent(fn, result.function)

    def test_strict_banks_leaves_dsa_output_unchanged(self, rf_dsa):
        fn = shared_use_kernel(consumers=12)
        soft, strict = (
            print_function(
                run_pipeline(
                    fn, PipelineConfig(rf_dsa, "bpc", strict_banks=flag)
                ).function
            )
            for flag in (False, True)
        )
        assert soft == strict

    def test_copies_accounted(self, rf_dsa):
        fn = shared_use_kernel(consumers=12)
        result = run_pipeline(fn, PipelineConfig(rf_dsa, "bpc"))
        assert result.copies_inserted >= (
            result.sdg_split.copies_inserted if result.sdg_split else 0
        )
