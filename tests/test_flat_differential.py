"""Differential test: each flat analysis equals its object-graph reference.

Production builds every hot analysis from the flat lowering, handed out
by the :class:`AnalysisManager`; ``tests/reference_analyses.py`` holds
the readable object-graph reference of each.  On every workload
function — before allocation (virtual registers), after a bpc allocation
and after a PBQP allocation (physical registers plus spill and split
code) — the two must agree exactly.  Dict-valued results are compared in
insertion order wherever downstream iteration depends on it; live
intervals are compared as a mapping (the reference seeds each block's
walk from a frozenset, so its key order may differ from the production
walk's, which seeds in rid order).
"""

from __future__ import annotations

import pytest

from repro.alloc import PbqpAllocator
from repro.ir.types import FP
from repro.passes import (
    AnalysisManager,
    ConflictCostAnalysis,
    ConflictGraphAnalysis,
    FlatIRAnalysis,
    LiveIntervalsAnalysis,
    SDGAnalysis,
)
from repro.prescount import PipelineConfig, run_pipeline
from repro.service.artifact import build_register_file

from .reference_analyses import (
    LIVENESS_SETS,
    raised_liveness,
    reference_costs,
    reference_intervals,
    reference_liveness,
    reference_rcg,
    reference_sdg,
)
from .test_golden_digests import workload_functions

REGCLASSES = (None, FP)


@pytest.fixture(scope="module")
def functions():
    """Every workload function, plus its bpc and PBQP allocations."""
    register_file = build_register_file({"registers": 16, "banks": 2})
    picked = []
    for label, fn in workload_functions():
        picked.append((label, fn))
        allocated = run_pipeline(fn, PipelineConfig(register_file, "bpc"))
        picked.append((f"{label} (bpc)", allocated.function))
        pbqp = PbqpAllocator(register_file).run(fn)
        picked.append((f"{label} (pbqp)", pbqp.function))
    return picked


def _ordered(mapping: dict) -> list:
    return list(mapping.items())


def test_fixture_carries_pbqp_spill_code(functions):
    spilling = [
        label for label, fn in functions
        if label.endswith("(pbqp)")
        and any(i.attrs.get("spill") for __, i in fn.instructions())
    ]
    assert len(spilling) >= 5
    # The largest workload function (1215 instructions) is PBQP-allocated too.
    assert "DSA-OP/tr15651 (pbqp)" in spilling


class TestFlatMatchesObjectReference:
    def test_liveness(self, functions):
        for label, fn in functions:
            flat = raised_liveness(AnalysisManager(fn).get(FlatIRAnalysis))
            ref = reference_liveness(fn)
            for name in LIVENESS_SETS:
                assert _ordered(flat[name]) == _ordered(ref[name]), (
                    f"{label}: liveness {name}"
                )

    def test_live_intervals(self, functions):
        for label, fn in functions:
            flat = AnalysisManager(fn).get(LiveIntervalsAnalysis)
            assert flat.intervals == reference_intervals(fn), label

    def test_conflict_cost(self, functions):
        for label, fn in functions:
            am = AnalysisManager(fn)
            for regclass in REGCLASSES:
                for relevant_only in (True, False):
                    flat = am.get(
                        ConflictCostAnalysis,
                        regclass=regclass,
                        conflict_relevant_only=relevant_only,
                    )
                    instr_cost, reg_cost, access_cost = reference_costs(
                        fn, regclass, relevant_only
                    )
                    where = f"{label} regclass={regclass} {relevant_only}"
                    assert [
                        flat.cost_of_instruction(instr)
                        for __, instr in fn.instructions()
                    ] == list(instr_cost.values()), f"{where}: Cost_I"
                    assert _ordered(flat._reg_cost) == _ordered(reg_cost), (
                        f"{where}: Cost_R"
                    )
                    assert _ordered(flat._access_cost) == _ordered(
                        access_cost
                    ), f"{where}: access cost"

    def test_conflict_graph(self, functions):
        for label, fn in functions:
            am = AnalysisManager(fn)
            for regclass in REGCLASSES:
                flat = am.get(ConflictGraphAnalysis, regclass=regclass)
                ref = reference_rcg(fn, regclass)
                for name in ("adjacency", "edge_cost", "node_cost"):
                    assert _ordered(getattr(flat, name)) == _ordered(
                        getattr(ref, name)
                    ), f"{label} regclass={regclass}: ConflictGraph.{name}"

    def test_same_displacement_graph(self, functions):
        for label, fn in functions:
            am = AnalysisManager(fn)
            for regclass in REGCLASSES:
                flat = am.get(SDGAnalysis, regclass=regclass)
                ref = reference_sdg(fn, regclass)
                for name in ("out_edges", "in_edges", "edge_count", "first"):
                    assert _ordered(getattr(flat, name)) == _ordered(
                        getattr(ref, name)
                    ), f"{label} regclass={regclass}: SDG.{name}"
