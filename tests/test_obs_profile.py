"""Conflict hotspot profile: site attribution, merging, rendering.

The load-bearing guarantee is **100% attribution**: with the profile
view on, the simulators' ``sites`` events fold (:class:`repro.obs.Profile`)
so that the sum of per-site stall cycles equals the aggregate conflict
penalty the simulators report — nothing is lost, nothing double-counted.  The
hand-allocated Fig. 2-style kernel pins the exact sites: registers are
chosen so the bank and subgroup decodes (2x4 file: ``bank=(r%8)//4``,
``subgroup=r%4``) are known in advance.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir import parse_function
from repro.obs import TRACER, Profile, loop_paths
from repro.prescount import PipelineConfig, run_pipeline
from repro.sim import DsaMachine, DynamicSimulator, estimate_dynamic_conflicts
from repro.sim.exec import ValueInterpreter
from repro.sim.machine import platform_rv2
from repro.workloads.specfp import specfp_suite

from .conftest import build_mac_kernel


@pytest.fixture(autouse=True)
def _restore_recorder():
    yield
    TRACER.enable(False, views=())
    TRACER.reset()


def profiling():
    TRACER.enable(views=("profile",))
    TRACER.reset()


def profile() -> Profile:
    return Profile(TRACER.spans)


#: Fig. 2's v0..v3 dependence shape, hand-allocated on a 2x4 file so
#: every hazard is known: fadd reads $fp0/$fp1 (both bank 0 -> one bank
#: conflict; subgroups 0/1 -> one misalignment), fmul reads $fp4/$fp8
#: (banks 1/0, conflict-free; def $fp9 is subgroup 1 vs operands'
#: subgroup 0 -> one misalignment).  The loop body runs 10 times.
FIG2_ALLOCATED = """
func @fig2 {
block entry:
  $fp0 = li #1.0
  $fp1 = li #2.0
  $fp4 = li #3.0
  jmp loop1.header
block loop1.header [trip=10]:
  $fp8 = fadd $fp0, $fp1
  $fp9 = fmul $fp4, $fp8
  br loop1.header prob=0.9
block loop1.exit:
  ret $fp9
}
"""


def fig2():
    return parse_function(FIG2_ALLOCATED)


def dsa_file():
    return BankSubgroupRegisterFile(16, 2, 4)


class TestSiteAttribution:
    def test_dsa_sites_and_full_cycle_attribution(self):
        profiling()
        report = DsaMachine(dsa_file()).run(fig2())
        # Aggregate ground truth: 1 bank conflict + 2 misalignments per
        # iteration, 10 iterations.
        assert report.conflict_penalty_cycles == pytest.approx(10.0)
        assert report.alignment_penalty_cycles == pytest.approx(20.0)
        # 100% attribution: every stall cycle lands on a site.
        assert profile().total_cycles() == pytest.approx(
            report.conflict_penalty_cycles + report.alignment_penalty_cycles
        )
        sites = profile().sites
        nest = ("loop1.header",)
        assert sites[
            ("fig2", nest, "loop1.header", 0, "fadd", "bank0($fp0,$fp1)")
        ].cycles == pytest.approx(10.0)
        assert sites[
            ("fig2", nest, "loop1.header", 0, "fadd", "align(sg0|sg1)")
        ].cycles == pytest.approx(10.0)
        assert sites[
            ("fig2", nest, "loop1.header", 1, "fmul", "align(sg0|sg1)")
        ].cycles == pytest.approx(10.0)
        assert len(sites) == 3
        # The conflict-free entry/exit blocks contribute nothing.
        assert all(key[2] == "loop1.header" for key in sites)

    def test_estimator_attribution_matches_aggregate(self):
        profiling()
        stats = estimate_dynamic_conflicts(fig2(), dsa_file())
        assert stats.dynamic_conflicts == 10
        assert stats.dynamic_subgroup_violations == 20
        assert profile().total_conflicts() == pytest.approx(
            stats.total_hazards
        )

    def test_interpreter_attribution_matches_aggregate(self):
        # The interpreted run takes whatever path the seeded RNG picks;
        # attribution must equal the aggregate on *that* path.
        fn = build_mac_kernel(n_pairs=4)
        rf = BankedRegisterFile(16, 2)
        allocated = run_pipeline(fn, PipelineConfig(rf, "non")).function
        profiling()
        stats = DynamicSimulator(rf).run(allocated)
        assert profile().total_conflicts() == stats.total_hazards

    def test_execution_heat_covers_every_executed_instruction(self):
        profiling()
        trace = ValueInterpreter(seed=0).run(fig2())
        total_heat = sum(s.executions for s in profile().sites.values())
        assert total_heat == trace.executed_instructions
        # Pure heat: no hazard decode, so no cycles are claimed.
        assert profile().total_cycles() == 0.0
        assert all(key[5] == "" for key in profile().sites)

    def test_disabled_records_nothing(self):
        def run_all():
            DsaMachine(dsa_file()).run(fig2())
            estimate_dynamic_conflicts(fig2(), dsa_file())
            DynamicSimulator(dsa_file()).run(fig2())
            ValueInterpreter().run(fig2())

        assert not TRACER.enabled
        run_all()
        assert len(TRACER) == 0
        # Recording without the profile view: spans, but no site rows.
        TRACER.enable()
        run_all()
        assert len(TRACER) > 0
        assert len(profile()) == 0


class TestLoopPaths:
    def test_paths_are_outer_to_inner(self):
        from .conftest import build_nested_loops

        paths = loop_paths(build_nested_loops())
        inner = [p for p in paths.values() if len(p) == 2]
        assert inner and all(p[0].startswith("loop1") for p in inner)
        assert paths["entry"] == ()


class TestSnapshotMerge:
    def test_roundtrip_restores_tuple_keys(self):
        TRACER.enable()
        key = ("f", ("loop1.header",), "b", 3, "fadd", "bank0($fp0,$fp8)")
        TRACER.fact("sites", rows=[(*key, 2.0, 2.0, 4.0)])
        # A worker's spans cross the pool as plain, JSON-safe data.
        shipped = json.loads(json.dumps(TRACER.spans))
        TRACER.reset()
        TRACER.record_raw(shipped)
        TRACER.record_raw(shipped)
        TRACER.record_raw(None)
        sites = profile().sites
        assert sites[key].cycles == 4.0
        assert sites[key].executions == 8.0

    @pytest.mark.parallel
    def test_parallel_suite_profile_matches_serial(self):
        from repro.experiments.harness import run_suite

        def sweep(jobs):
            obs.reset_all()
            suite = specfp_suite(0.02, seed=0)
            run_suite(
                suite, platform_rv2().file_for(2), "non",
                file_key="rv2:2", measure_dynamic=True, jobs=jobs,
            )
            return profile().to_json()

        profiling()
        serial = sweep(jobs=1)
        parallel = sweep(jobs=4)
        assert parallel == serial
        assert serial["sites"]  # the sweep really found hotspots


class TestRendering:
    def _profiled_fig2(self):
        profiling()
        fn = fig2()
        DsaMachine(dsa_file()).run(fn)
        return fn

    def test_render_top_table(self):
        self._profiled_fig2()
        text = profile().render(n=2)
        assert "3 sites, 30 attributed stall cycles" in text
        assert "fig2:loop1.header#0 fadd bank0($fp0,$fp1)" in text
        assert "[loop1.header]" in text
        assert "1 cooler sites elided" in text

    def test_render_empty(self):
        assert "(nothing recorded)" in Profile().render()

    def test_folded_stacks_format(self):
        self._profiled_fig2()
        lines = profile().folded_stacks().splitlines()
        assert (
            "fig2;loop1.header;loop1.header;fadd#0[bank0($fp0,$fp1)] 10"
            in lines
        )
        # Every line is "<frame;frame;...> <integer>".
        for line in lines:
            frames, value = line.rsplit(" ", 1)
            assert int(value) > 0 and ";" in frames

    def test_annotated_listing_roundtrips(self):
        fn = self._profiled_fig2()
        listing = profile().annotate(fn)
        assert "; 20 stall cycles" in listing  # fadd: bank + align
        assert "bank0($fp0,$fp1)" in listing
        # Annotations are comments: the listing still parses back.
        reparsed = parse_function(listing)
        assert reparsed.instruction_count() == fn.instruction_count()

    def test_json_schema(self):
        self._profiled_fig2()
        doc = json.loads(json.dumps(profile().to_json()))
        assert doc["schema"] == 1
        assert doc["total_cycles"] == pytest.approx(30.0)
        assert len(doc["sites"]) == 3
        assert {s["detail"] for s in doc["sites"]} == {
            "bank0($fp0,$fp1)", "align(sg0|sg1)", "align(sg0|sg1)",
        }
