"""AnalysisManager: lazy caching, parameter keys, precise invalidation."""

from __future__ import annotations

import pytest

from repro.analysis import ConflictCostModel, LiveIntervals
from repro.ir.cfg import CFG
from repro.ir.types import FP
from repro.passes import (
    CFG_ONLY,
    PRESERVE_ALL,
    PRESERVE_NONE,
    AnalysisManager,
    CFGAnalysis,
    ConflictCostAnalysis,
    ConflictGraphAnalysis,
    LiveIntervalsAnalysis,
    LivenessAnalysis,
    LoopInfoAnalysis,
    SDGAnalysis,
    SlotIndexesAnalysis,
    caching_disabled,
)

from tests.conftest import build_mac_kernel


class TestCaching:
    def test_second_get_is_a_hit_and_same_object(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        first = am.get(CFGAnalysis)
        second = am.get(CFGAnalysis)
        assert first is second
        assert isinstance(first, CFG)
        counter = am.counter(CFGAnalysis)
        assert (counter.hits, counter.misses) == (1, 1)

    def test_results_match_direct_builds(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        live = am.get(LiveIntervalsAnalysis)
        direct = LiveIntervals.build(mac_kernel)
        assert set(live.intervals) == set(direct.intervals)
        assert live.max_pressure() == direct.max_pressure()
        cost = am.get(ConflictCostAnalysis, regclass=FP)
        direct_cost = ConflictCostModel.build(mac_kernel, regclass=FP)
        for _, instr in mac_kernel.instructions():
            assert cost.cost_of_instruction(instr) == pytest.approx(
                direct_cost.cost_of_instruction(instr)
            )

    def test_dependencies_are_cached_through_the_manager(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        am.get(LiveIntervalsAnalysis)
        # Building intervals populated CFG, slots, and liveness too.
        for dep in (CFGAnalysis, SlotIndexesAnalysis, LivenessAnalysis):
            assert dep in am
            assert am.counter(dep).misses == 1
        # A later direct request for a dependency is a pure hit.
        am.get(LivenessAnalysis)
        assert am.counter(LivenessAnalysis).hits == 1

    def test_params_key_the_cache(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        fp = am.get(ConflictCostAnalysis, regclass=FP)
        unrestricted = am.get(ConflictCostAnalysis, regclass=None)
        assert fp is not unrestricted
        assert am.counter(ConflictCostAnalysis).misses == 2
        assert am.get(ConflictCostAnalysis, regclass=FP) is fp
        assert am.counter(ConflictCostAnalysis).hits == 1

    def test_cached_peeks_without_counting(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        assert am.cached(SDGAnalysis, regclass=FP) is None
        sdg = am.get(SDGAnalysis, regclass=FP)
        assert am.cached(SDGAnalysis, regclass=FP) is sdg
        assert am.counter(SDGAnalysis).requests == 1

    def test_caching_disabled_recomputes_every_time(self, mac_kernel):
        with caching_disabled():
            am = AnalysisManager(mac_kernel)
            first = am.get(CFGAnalysis)
            second = am.get(CFGAnalysis)
        assert first is not second
        assert am.counter(CFGAnalysis).misses == 2
        assert len(am) == 0


class TestInvalidation:
    def test_preserve_none_drops_everything(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        am.get(LiveIntervalsAnalysis)
        dropped = am.invalidate(PRESERVE_NONE)
        # intervals + cfg + slots + liveness + the flat lowering.
        assert dropped == 5
        assert len(am) == 0
        assert am.total_invalidations() == 5

    def test_preserve_all_drops_nothing(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        am.get(LiveIntervalsAnalysis)
        assert am.invalidate(PRESERVE_ALL) == 0
        assert LiveIntervalsAnalysis in am

    def test_cfg_only_keeps_block_level_analyses(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        am.get(LiveIntervalsAnalysis)
        am.get(LoopInfoAnalysis)
        am.invalidate(CFG_ONLY)
        assert CFGAnalysis in am
        assert LoopInfoAnalysis in am
        for dropped in (SlotIndexesAnalysis, LivenessAnalysis, LiveIntervalsAnalysis):
            assert dropped not in am

    def test_dependency_closure(self, mac_kernel):
        """Preserving an analysis without its dependencies drops it too."""
        am = AnalysisManager(mac_kernel)
        am.get(LiveIntervalsAnalysis)
        # Liveness is missing from the preserved set, so LiveIntervals
        # cannot survive even though it is named.
        am.invalidate(
            frozenset({CFGAnalysis, SlotIndexesAnalysis, LiveIntervalsAnalysis})
        )
        assert LiveIntervalsAnalysis not in am
        assert CFGAnalysis in am
        assert SlotIndexesAnalysis in am

    def test_transitive_dependency_closure(self, mac_kernel):
        """The closure recurses: RCG <- cost model <- loop info."""
        am = AnalysisManager(mac_kernel)
        am.get(ConflictGraphAnalysis, regclass=FP)
        am.invalidate(
            frozenset({ConflictGraphAnalysis, ConflictCostAnalysis})
        )  # LoopInfo missing -> whole chain falls
        assert ConflictGraphAnalysis not in am
        assert ConflictCostAnalysis not in am

    def test_invalidation_then_reget_recomputes(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        before = am.get(LiveIntervalsAnalysis)
        am.invalidate(CFG_ONLY)
        after = am.get(LiveIntervalsAnalysis)
        assert before is not after
        assert am.counter(LiveIntervalsAnalysis).misses == 2


class TestReporting:
    def test_snapshot_is_plain_data(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        am.get(LiveIntervalsAnalysis)
        am.get(LiveIntervalsAnalysis)
        snap = am.stats_snapshot()
        assert snap["LiveIntervals"] == {
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
        }

    def test_totals(self, mac_kernel):
        am = AnalysisManager(mac_kernel)
        # Intervals miss 5 analyses (with the flat lowering); Liveness's
        # internal CFG request hits, and the flat lowering is requested
        # twice (Liveness, then LiveIntervals).
        am.get(LiveIntervalsAnalysis)
        am.get(CFGAnalysis)
        assert am.total_hits() == 3
        assert am.total_misses() == 5
        counter = am.counter(CFGAnalysis)
        assert counter.hit_rate == pytest.approx(2 / 3)


class TestBinding:
    def test_manager_is_bound_to_one_function(self):
        fn_a = build_mac_kernel(2)
        fn_b = build_mac_kernel(2)
        from repro.passes import FunctionPassManager

        am = AnalysisManager(fn_a)
        with pytest.raises(ValueError):
            FunctionPassManager().run(fn_b, am=am)
