"""The decision audit: Algorithm 1 ``decision`` events on the Fig. 2 toy
function, folded by the ``--explain`` view."""

from __future__ import annotations

import json

import pytest

from repro.banks import BankedRegisterFile
from repro.ir import IRBuilder
from repro.obs import TRACER, decisions, explain
from repro.prescount import PipelineConfig, run_pipeline
from repro.prescount.bank_assigner import (
    PATH_CONFLICT_FREE,
    PATH_NEIGHBOUR_COST,
    PATH_THRESHOLD_FALLBACK,
)

from .conftest import build_mac_kernel


@pytest.fixture(autouse=True)
def _restore_recorder():
    yield
    TRACER.enable(False, views=())
    TRACER.reset()


def build_fig2_kernel():
    """The paper's Fig. 2 snippet: RCG edges v0-v1, v1-v2, v3-v0."""
    b = IRBuilder("fig2")
    v0 = b.const(1.0)
    v1 = b.const(2.0)
    v2 = b.arith("fadd", v0, v1)
    v3 = b.arith("fmul", v1, v2)
    out = b.arith("fadd", v3, v0)
    b.ret(out)
    return b.finish()


def decide(function, vreg, step, path="", chosen=-1, **detail):
    TRACER.fact("decision", function=function, vreg=vreg, step=step,
                path=path, chosen=chosen, detail=detail)


def run_fig2(views=("explain",)):
    TRACER.enable(views=views)
    TRACER.reset()
    run_pipeline(build_fig2_kernel(),
                 PipelineConfig(BankedRegisterFile(8, 2), "bpc"))
    return decisions(TRACER.spans)


class TestLogBasics:
    def test_disabled_records_nothing(self):
        decide("f", "%v0", "rcg-color", PATH_CONFLICT_FREE, 1)
        assert TRACER.spans == []
        # Recording, but without the explain view: the candidate
        # rankings are never computed.
        assert run_fig2(views=()) == []
        assert len(TRACER) > 0

    def test_record_and_query(self):
        TRACER.enable()
        decide("f", "%v0", "rcg-color", PATH_CONFLICT_FREE, 1, cost=4.0)
        decide("f", "%v1", "rcg-color", PATH_NEIGHBOUR_COST, 0)
        decide("g", "%v0", "spill", weight=2.5)
        spans = TRACER.spans
        assert len(decisions(spans, "%v0")) == 2
        assert len(decisions(spans, "%v0", function="f")) == 1
        assert decisions(spans, "%v0")[0]["detail"]["cost"] == 4.0

    def test_explain_unknown_vreg(self):
        assert "no recorded decisions" in explain([], "%v99")

    def test_snapshot_merge_roundtrip(self):
        """Decision events cross the pool as plain data and fold back."""
        TRACER.enable()
        decide("f", "%v0", "rcg-color", PATH_CONFLICT_FREE, 1,
               candidates=[{"bank": 1, "occupancy": 0}])
        shipped = json.loads(json.dumps(TRACER.spans))
        TRACER.reset()
        TRACER.record_raw(shipped)
        TRACER.record_raw(None)
        records = decisions(TRACER.spans)
        assert len(records) == 1
        assert records[0]["detail"]["candidates"][0]["bank"] == 1

    def test_render_formats_candidates(self):
        TRACER.enable()
        decide("f", "%v0", "rcg-color", PATH_CONFLICT_FREE, 1, cost=4.0,
               candidates=[{"bank": 1, "pressure_if_assigned": 2,
                            "occupancy": 1}])
        text = explain(TRACER.spans, "%v0")
        assert "%v0 [f] rcg-color via conflict-free -> bank 1" in text
        assert "cost = 4.0" in text
        assert "bank 1: pressure_if_assigned=2, occupancy=1" in text


class TestAlgorithmOneAudit:
    def test_every_rcg_node_gets_a_decision(self):
        colored = [r for r in run_fig2() if r["step"] == "rcg-color"]
        # Fig. 2's RCG has (at least) the four conflicting registers.
        assert len(colored) >= 4
        for rec in colored:
            assert rec["function"] == "fig2"
            assert rec["path"] in (
                PATH_CONFLICT_FREE,
                PATH_THRESHOLD_FALLBACK,
                PATH_NEIGHBOUR_COST,
            )
            assert rec["chosen"] in (0, 1)
            assert rec["detail"]["cost"] >= 0.0
            assert rec["detail"]["degree"] >= 1
            assert isinstance(rec["detail"]["candidates"], list)
            assert rec["detail"]["candidates"][0]["bank"] == rec["chosen"]

    def test_candidates_carry_prioritizer_keys(self):
        for rec in run_fig2():
            if rec["step"] != "rcg-color":
                continue
            for cand in rec["detail"]["candidates"]:
                if rec["path"] == PATH_NEIGHBOUR_COST:
                    assert "neighbour_cost" in cand
                else:
                    assert "pressure_if_assigned" in cand
                    assert "occupancy" in cand

    def test_neighbor_banks_reflect_processing_order(self):
        colored = [r for r in run_fig2() if r["step"] == "rcg-color"]
        # The first processed node has no colored neighbors yet; later
        # ones see earlier choices.
        assert colored[0]["detail"]["neighbor_banks"] == {}
        assert any(r["detail"]["neighbor_banks"] for r in colored[1:])

    def test_free_registers_are_balanced_and_logged(self):
        free = [r for r in run_fig2() if r["step"] == "free-balance"]
        # `out` is only read by ret -> not in the RCG -> free register.
        assert free, "expected at least one free-register placement"
        for rec in free:
            assert rec["chosen"] in (0, 1)
            assert rec["detail"]["candidates"][0]["bank"] == rec["chosen"]
            assert "pressure_if_assigned" in rec["detail"]["candidates"][0]

    def test_explain_renders_full_decision(self):
        vreg = next(r["vreg"] for r in run_fig2() if r["step"] == "rcg-color")
        text = explain(TRACER.spans, vreg)
        assert "rcg-color via" in text
        assert "candidates (best first):" in text
        assert "no recorded decisions" not in text

    def test_spill_decisions_are_logged(self):
        TRACER.enable(views=("explain",))
        fn = build_mac_kernel(n_pairs=8)
        rf = BankedRegisterFile(num_registers=4, num_banks=2)
        result = run_pipeline(fn, PipelineConfig(rf, "bpc"))
        assert result.spill_count > 0
        spills = [r for r in decisions(TRACER.spans) if r["step"] == "spill"]
        # One record per spill decision; split children spill separately
        # but share their origin, which is what spill_count counts.
        assert len(spills) >= result.spill_count
        origins = {r["detail"]["origin"] for r in spills}
        assert len(origins) == result.spill_count
        for rec in spills:
            assert rec["detail"]["weight"] >= 0.0


def test_decisions_outside_any_span_are_kept():
    """A producer called with no span open still reaches the view: the
    event roots a trace of its own instead of being dropped."""
    from repro.prescount.bank_assigner import PresCountBankAssigner

    TRACER.enable(views=("explain",))
    PresCountBankAssigner(BankedRegisterFile(8, 2)).assign(build_fig2_kernel())
    assert any(r["step"] == "rcg-color" for r in decisions(TRACER.spans))
