"""FunctionPassManager: sequencing, preserved-set invalidation, and the
pass-composed Fig. 4 pipeline's equivalence to the hand-composed phases."""

from __future__ import annotations

import pytest

from repro.alloc.coalescing import coalesce
from repro.alloc.greedy import GreedyAllocator
from repro.alloc.scheduling import schedule_function
from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir import IRBuilder, print_function
from repro.ir import instruction as ins
from repro.ir.types import FP
from repro.obs import TRACER, pass_table
from repro.passes import (
    CFG_ONLY,
    PRESERVE_ALL,
    AnalysisManager,
    CFGAnalysis,
    ConflictCostAnalysis,
    FlatIRAnalysis,
    FunctionPassManager,
    InterferenceAnalysis,
    LiveIntervalsAnalysis,
    LoopInfoAnalysis,
    Pass,
)
from repro.prescount import (
    PipelineConfig,
    PresCountBankAssigner,
    PresCountPolicy,
    build_pipeline,
    run_pipeline,
)

from tests.conftest import build_mac_kernel


class SplitBlockPass(Pass):
    """CFG-mutating transform: appends a block jumped to from the end."""

    name = "split-block"

    def run(self, function, am, state):
        new_label = f"{function.entry.label}_tail"
        block = function.add_block(new_label)
        block.instructions.append(ins.ret())
        return new_label

    # default preserved(): PRESERVE_NONE


class RenameRegisterPass(Pass):
    """Register-renaming transform: rewrites operands, block graph intact."""

    name = "rename"

    def run(self, function, am, state):
        regs = sorted(function.virtual_registers(), key=lambda r: r.vid)
        if not regs:
            return 0
        old = regs[0]
        new = function.new_vreg(old.regclass)
        mapping = {old: new}
        for block in function.blocks:
            block.instructions = [i.rewrite(mapping) for i in block.instructions]
        return 1

    def preserved(self, result):
        # Renaming changes liveness but never labels or terminators.
        return CFG_ONLY


class TestInvalidationThroughPasses:
    def test_cfg_mutation_invalidates_liveness_and_intervals(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        am.get(InterferenceAnalysis)
        am.get(CFGAnalysis)
        assert am.counter(LiveIntervalsAnalysis).misses == 1

        FunctionPassManager([SplitBlockPass()]).run(mac_kernel, am=am)

        # Block liveness lives in the flat lowering.
        assert FlatIRAnalysis not in am
        assert LiveIntervalsAnalysis not in am
        assert InterferenceAnalysis not in am
        assert CFGAnalysis not in am
        # The next consumer recomputes: a miss, not a stale hit.
        am.get(LiveIntervalsAnalysis)
        assert am.counter(LiveIntervalsAnalysis).misses == 2
        assert am.counter(LiveIntervalsAnalysis).hits == 0
        assert am.counter(FlatIRAnalysis).invalidations == 1

    def test_renaming_pass_keeps_cfg_level_cache(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        am.get(InterferenceAnalysis)
        am.get(ConflictCostAnalysis, regclass=FP)
        am.get(LoopInfoAnalysis)
        cfg_before = am.get(CFGAnalysis)

        FunctionPassManager([RenameRegisterPass()]).run(mac_kernel, am=am)

        # Declared preserved: CFG + LoopInfo survive and keep hitting.
        assert am.get(CFGAnalysis) is cfg_before
        assert am.counter(CFGAnalysis).invalidations == 0
        assert am.counter(LoopInfoAnalysis).invalidations == 0
        # The lowering (with its block liveness) and everything derived
        # from it were dropped.
        assert am.counter(FlatIRAnalysis).invalidations == 1
        assert am.counter(LiveIntervalsAnalysis).invalidations == 1
        assert am.counter(InterferenceAnalysis).invalidations == 1
        # The cost model reads the lowering as well as the kept LoopInfo.
        assert am.counter(ConflictCostAnalysis).invalidations == 1

    def test_state_maps_pass_names_to_results(self, mac_kernel):
        state = FunctionPassManager([RenameRegisterPass()]).run(mac_kernel)
        assert state == {"rename": 1}

    def test_instrumentation_records_per_pass(self, mac_kernel):
        fpm = FunctionPassManager([SplitBlockPass(), RenameRegisterPass()])
        am = AnalysisManager(mac_kernel)
        am.get(InterferenceAnalysis)
        am.get(LoopInfoAnalysis)
        TRACER.enable()
        TRACER.reset()
        try:
            fpm.run(mac_kernel, am=am)
            passes, analyses = pass_table(TRACER.spans)
        finally:
            TRACER.enable(False)
            TRACER.reset()
        split = passes["split-block"]
        assert split["runs"] == 1
        assert split["d_instrs"] == 1  # the appended ret
        # cfg/loop info, plus the flat lowering, the intervals and the RIG.
        assert split["inval"] == 5
        assert passes["rename"]["runs"] == 1
        # The pass spans' invalidations are the per-analysis ones.
        assert sum(a["inval"] for a in analyses.values()) == 5


class TestFigure4Passes:
    @pytest.mark.parametrize(
        "method,dsa,expected",
        [
            ("non", False, ["coalescing", "scheduling", "allocation"]),
            ("bcr", False, ["coalescing", "scheduling", "allocation"]),
            (
                "bpc",
                False,
                ["coalescing", "scheduling", "bank-assignment", "allocation"],
            ),
            (
                "bpc",
                True,
                [
                    "coalescing",
                    "sdg-split",
                    "scheduling",
                    "bank-assignment",
                    "allocation",
                ],
            ),
        ],
    )
    def test_build_pipeline_composition(self, method, dsa, expected):
        file_ = (
            BankSubgroupRegisterFile(64, 2, 4) if dsa else BankedRegisterFile(32, 2)
        )
        fpm = build_pipeline(PipelineConfig(file_, method))
        assert [p.name for p in fpm.passes] == expected

    def test_ablation_switches_prune_passes(self):
        config = PipelineConfig(
            BankedRegisterFile(32, 2),
            "bpc",
            run_coalescing=False,
            run_scheduling=False,
        )
        fpm = build_pipeline(config)
        assert [p.name for p in fpm.passes] == ["bank-assignment", "allocation"]

    @pytest.mark.parametrize("method", ["non", "bcr", "bpc"])
    def test_pipeline_matches_hand_composed_phases(self, method):
        """run_pipeline == the same phases invoked directly, bit for bit."""
        original = build_mac_kernel(6, trip_count=32)
        register_file = BankedRegisterFile(16, 2)

        pipe = run_pipeline(original, PipelineConfig(register_file, method))

        manual = original.clone()
        coalescing = coalesce(manual, FP)
        schedule_function(manual)
        policy = None
        if method == "bpc":
            assignment = PresCountBankAssigner(register_file, FP).assign(manual)
            assignment.strict = False
            policy = PresCountPolicy(register_file, assignment)
        elif method == "bcr":
            from repro.prescount import BcrPolicy

            policy = BcrPolicy(register_file, FP)
        else:
            from repro.alloc.base import NaturalOrderPolicy

            policy = NaturalOrderPolicy()
        allocation = GreedyAllocator(register_file, policy, FP).run(
            manual, clone=False
        )
        allocation.copies_removed += coalescing.copies_removed

        assert print_function(pipe.function) == print_function(manual)
        assert pipe.allocation.spill_count == allocation.spill_count
        assert pipe.allocation.copies_removed == allocation.copies_removed
        if method == "bpc":
            assert pipe.bank_assignment.banks == assignment.banks

    def test_pipeline_result_carries_live_analysis_cache(self, rf_rv2):
        fn = build_mac_kernel(4)
        pipe = run_pipeline(fn, PipelineConfig(rf_rv2, "bpc"))
        am = pipe.analyses
        assert am is not None
        assert am.function is pipe.function
        # Allocation preserved the CFG-level analyses; they keep hitting.
        hits_before = am.counter(CFGAnalysis).hits
        am.get(CFGAnalysis)
        assert am.counter(CFGAnalysis).hits == hits_before + 1

    def test_live_intervals_cache_hits_inside_pipeline(self, rf_rv2):
        fn = build_mac_kernel(6, trip_count=32)
        pipe = run_pipeline(fn, PipelineConfig(rf_rv2, "bpc"))
        counter = pipe.analyses.counter(LiveIntervalsAnalysis)
        # The bank assigner and the allocator both reuse the scheduler's
        # post-reorder intervals: the shared cache must see real hits.
        assert counter.hits >= 1
