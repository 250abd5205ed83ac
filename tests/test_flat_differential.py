"""Differential test: each flat analysis equals its object-graph reference.

Production builds every hot analysis through the :class:`AnalysisManager`,
which hands them the shared flat lowering.  The object-graph bodies —
reached by ``X.build(fn)`` without ``flat=`` — are the readable
reference implementation; on every workload function, before allocation
(virtual registers) and after a bpc allocation (physical registers plus
spill and split code), the two must agree exactly.  Dict-valued results
are compared in insertion order wherever downstream iteration depends on
it; live intervals are compared as a mapping (their key order is
documented to differ and no consumer depends on it).
"""

from __future__ import annotations

import pytest

from repro.analysis.conflict_graph import ConflictGraph
from repro.analysis.cost import ConflictCostModel
from repro.analysis.intervals import LiveIntervals
from repro.analysis.liveness import Liveness
from repro.analysis.sdg import SameDisplacementGraph
from repro.ir.types import FP
from repro.passes import (
    AnalysisManager,
    ConflictCostAnalysis,
    ConflictGraphAnalysis,
    LiveIntervalsAnalysis,
    LivenessAnalysis,
    SDGAnalysis,
)
from repro.prescount import PipelineConfig, run_pipeline
from repro.service.artifact import build_register_file

from .test_golden_digests import workload_functions

REGCLASSES = (None, FP)


@pytest.fixture(scope="module")
def functions():
    """Every workload function before and after a bpc allocation."""
    register_file = build_register_file({"registers": 16, "banks": 2})
    picked = []
    for label, fn in workload_functions():
        picked.append((label, fn))
        allocated = run_pipeline(fn, PipelineConfig(register_file, "bpc"))
        picked.append((f"{label} (allocated)", allocated.function))
    return picked


def _ordered(mapping: dict) -> list:
    return list(mapping.items())


class TestFlatMatchesObjectReference:
    def test_liveness(self, functions):
        for label, fn in functions:
            flat = AnalysisManager(fn).get(LivenessAnalysis)
            ref = Liveness.build(fn)
            for name in ("gen", "kill", "live_in", "live_out"):
                assert _ordered(getattr(flat, name)) == _ordered(
                    getattr(ref, name)
                ), f"{label}: Liveness.{name}"

    def test_live_intervals(self, functions):
        for label, fn in functions:
            flat = AnalysisManager(fn).get(LiveIntervalsAnalysis)
            ref = LiveIntervals.build(fn)
            assert flat.intervals == ref.intervals, label

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
                    ref = ConflictCostModel.build(
                        fn,
                        regclass=regclass,
                        conflict_relevant_only=relevant_only,
                    )
                    where = f"{label} regclass={regclass} {relevant_only}"
                    for name in ("_instr_cost", "_reg_cost", "_access_cost"):
                        assert _ordered(getattr(flat, name)) == _ordered(
                            getattr(ref, name)
                        ), f"{where}: ConflictCostModel.{name}"

    def test_conflict_graph(self, functions):
        for label, fn in functions:
            am = AnalysisManager(fn)
            for regclass in REGCLASSES:
                flat = am.get(ConflictGraphAnalysis, regclass=regclass)
                ref = ConflictGraph.build(fn, regclass=regclass)
                for name in ("adjacency", "edge_cost", "node_cost", "edge_instrs"):
                    assert _ordered(getattr(flat, name)) == _ordered(
                        getattr(ref, name)
                    ), f"{label} regclass={regclass}: ConflictGraph.{name}"

    def test_same_displacement_graph(self, functions):
        for label, fn in functions:
            am = AnalysisManager(fn)
            for regclass in REGCLASSES:
                flat = am.get(SDGAnalysis, regclass=regclass)
                ref = SameDisplacementGraph.build(fn, regclass)
                for name in ("out_edges", "in_edges", "edge_instrs"):
                    assert _ordered(getattr(flat, name)) == _ordered(
                        getattr(ref, name)
                    ), f"{label} regclass={regclass}: SDG.{name}"
