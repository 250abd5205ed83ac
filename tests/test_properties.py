"""Property-based tests (hypothesis) on core data structures and the
end-to-end pipeline invariants."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    BankPressureTracker,
    ConflictGraph,
    InterferenceGraph,
    LiveInterval,
    LiveIntervals,
)
from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir.types import FP, VirtualRegister
from repro.prescount import PipelineConfig, PresCountBankAssigner, run_pipeline
from repro.sim import analyze_static, observably_equivalent
from repro.workloads import random_function

V = VirtualRegister

segments_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 20)).map(
        lambda p: (p[0], p[0] + p[1])
    ),
    min_size=1,
    max_size=8,
)


class TestIntervalProperties:
    @given(segments_strategy)
    def test_segments_sorted_and_disjoint(self, raw):
        iv = LiveInterval(V(0))
        for start, end in raw:
            iv.add_segment(start, end)
        for a, b in zip(iv.segments, iv.segments[1:]):
            assert a.end < b.start  # sorted, disjoint, non-adjacent

    @given(segments_strategy)
    def test_covers_matches_inputs(self, raw):
        iv = LiveInterval(V(0))
        for start, end in raw:
            iv.add_segment(start, end)
        for start, end in raw:
            assert iv.covers(start)
            assert iv.covers(end - 1)

    @given(segments_strategy, segments_strategy)
    def test_overlap_symmetric_and_matches_amount(self, raw_a, raw_b):
        a = LiveInterval(V(0))
        b = LiveInterval(V(1))
        for start, end in raw_a:
            a.add_segment(start, end)
        for start, end in raw_b:
            b.add_segment(start, end)
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlap_amount(b) == b.overlap_amount(a)
        assert a.overlaps(b) == (a.overlap_amount(b) > 0)
        assert bool(a.mask & b.mask) == a.overlaps(b)

    @given(segments_strategy)
    def test_size_at_most_span(self, raw):
        iv = LiveInterval(V(0))
        for start, end in raw:
            iv.add_segment(start, end)
        assert 0 < iv.size <= iv.span


class TestPressureProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), segments_strategy), min_size=1, max_size=12
        )
    )
    def test_incremental_matches_recompute(self, assignments):
        tracker = BankPressureTracker(2)
        reference: dict[int, list[LiveInterval]] = {0: [], 1: []}
        for vid, (bank, raw) in enumerate(assignments):
            iv = LiveInterval(V(vid))
            for start, end in raw:
                iv.add_segment(start, end)
            predicted = tracker.pressure_if_assigned(bank, iv)
            tracker.assign(bank, iv)
            reference[bank].append(iv)
            assert tracker.pressure(bank) == predicted
            # Brute-force recompute: max over all points of active count.
            points = {
                p
                for other in reference[bank]
                for seg in other.segments
                for p in (seg.start, seg.end - 1)
            }
            brute = max(
                sum(1 for other in reference[bank] if other.covers(p))
                for p in points
            )
            assert tracker.pressure(bank) == brute


class TestBankDecodingProperties:
    @given(st.integers(0, 1023), st.sampled_from([2, 4, 8, 16]))
    def test_interleaved_bank_in_range(self, index, banks):
        rf = BankedRegisterFile(1024, banks)
        assert 0 <= rf.bank_of(index) < banks

    @given(st.integers(0, 1023))
    def test_fig6_decoding_formula(self, index):
        rf = BankSubgroupRegisterFile(1024, 2, 4)
        assert rf.bank_of(index) == (index % 8) // 4
        assert rf.subgroup_of(index) == index % 4

    @given(st.sampled_from([2, 4, 8]))
    def test_banks_partition_registers(self, banks):
        rf = BankedRegisterFile(32, banks)
        seen = set()
        for bank in range(banks):
            regs = {r.index for r in rf.registers_in_bank(bank)}
            assert not (regs & seen)
            seen |= regs
        assert seen == set(range(32))


class TestGraphProperties:
    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 300))
    def test_rcg_subgraph_of_rig(self, seed):
        fn = random_function(seed)
        live = LiveIntervals.build(fn)
        rig = InterferenceGraph.build(fn, live)
        rcg = ConflictGraph.build(fn)
        for key in rcg.edge_cost:
            a, b = tuple(key)
            assert rig.interferes(a, b)

    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 300))
    def test_rig_matches_brute_force(self, seed):
        fn = random_function(seed, max_ops=15)
        live = LiveIntervals.build(fn)
        rig = InterferenceGraph.build(fn, live)
        intervals = live.vreg_intervals()
        for i, a in enumerate(intervals):
            for b in intervals[i + 1:]:
                assert rig.interferes(a.reg, b.reg) == a.overlaps(b)

    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 300), st.sampled_from([2, 4]))
    def test_coloring_conflict_cost_nonnegative(self, seed, banks):
        fn = random_function(seed, max_ops=20)
        rf = BankedRegisterFile(32, banks)
        assignment = PresCountBankAssigner(rf).assign(fn)
        assert assignment.residual_cost >= 0.0
        rcg = ConflictGraph.build(fn)
        # Residual cost zero iff the RCG coloring is proper.
        restricted = {r: assignment.banks[r] for r in rcg.nodes()}
        assert (assignment.residual_cost == 0.0) == rcg.is_proper_coloring(
            restricted
        ) or not rcg.nodes()


class TestPipelineProperties:
    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 500), st.sampled_from(["non", "bcr", "bpc"]))
    def test_semantics_preserved(self, seed, method):
        fn = random_function(seed, max_ops=25)
        rf = BankedRegisterFile(16, 2)
        result = run_pipeline(fn, PipelineConfig(rf, method))
        assert observably_equivalent(fn, result.function, seed=seed)

    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 500))
    def test_no_virtual_registers_survive(self, seed):
        fn = random_function(seed, max_ops=25)
        rf = BankedRegisterFile(16, 2)
        result = run_pipeline(fn, PipelineConfig(rf, "bpc"))
        leftovers = [
            r
            for __, i in result.function.instructions()
            for r in i.regs()
            if isinstance(r, VirtualRegister) and r.regclass == FP
        ]
        assert leftovers == []

    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 500))
    def test_bpc_realizes_its_predicted_residual_when_rich(self, seed):
        """In the register-rich regime the allocator honors the bank
        assignment fully: the weighted conflicts that remain are exactly
        the residual cost Algorithm 1 itself predicted (the monochromatic
        RCG edges it could not avoid).  `non` can occasionally get lucky
        on an uncolorable RCG, so bpc <= non is only a *statistical*
        claim (checked in test_prescount_bcr); this is the per-function
        invariant."""
        fn = random_function(seed, max_ops=25)
        rf = BankedRegisterFile(1024, 2)
        bpc = run_pipeline(fn, PipelineConfig(rf, "bpc"))
        bpc_cost = analyze_static(bpc.function, rf).weighted_conflicts
        assert bpc.bank_assignment is not None
        assert bpc_cost <= bpc.bank_assignment.residual_cost + 1e-9

    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 500))
    def test_dsa_semantics_preserved(self, seed):
        fn = random_function(seed, max_ops=20)
        rf = BankSubgroupRegisterFile(1024, 2, 4)
        result = run_pipeline(fn, PipelineConfig(rf, "bpc"))
        assert observably_equivalent(fn, result.function, seed=seed)
