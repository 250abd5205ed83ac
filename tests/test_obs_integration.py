"""Observability end to end: zero overhead off, deterministic merged on.

The two ISSUE-level guarantees:

* with every layer disabled, pipeline outputs are byte-identical to a
  run that never heard of ``repro.obs``;
* with tracing on, a ``--jobs 4`` suite run merges worker spans into a
  tree structurally identical to the serial run's.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.banks import BankedRegisterFile
from repro.experiments.harness import run_suite
from repro.ir import print_function
from repro.prescount import PipelineConfig, run_pipeline
from repro.sim import analyze_static
from repro.sim.machine import platform_rv1
from repro.workloads.specfp import specfp_suite

from .conftest import build_mac_kernel


@pytest.fixture(autouse=True)
def _restore_globals():
    yield
    for layer in (obs.TRACER, obs.METRICS, obs.AUDIT, obs.PROFILE):
        layer.enable(False)
        layer.reset()


def allocate_and_render(method="bpc"):
    fn = build_mac_kernel(n_pairs=4)
    rf = BankedRegisterFile(num_registers=16, num_banks=2)
    result = run_pipeline(fn, PipelineConfig(rf, method))
    stats = analyze_static(result.function, rf)
    return (
        print_function(result.function),
        stats.bank_conflicts,
        result.spill_count,
        result.copies_inserted,
    )


class TestZeroOverheadDisabled:
    def test_disabled_layers_record_nothing(self):
        allocate_and_render()
        assert len(obs.TRACER) == 0
        assert not obs.METRICS.counters
        assert len(obs.AUDIT) == 0
        assert len(obs.PROFILE) == 0

    def test_outputs_identical_with_and_without_observability(self):
        baseline = [allocate_and_render(m) for m in ("non", "bcr", "bpc")]
        obs.TRACER.enable()
        obs.METRICS.enable()
        obs.AUDIT.enable()
        obs.PROFILE.enable()
        observed = [allocate_and_render(m) for m in ("non", "bcr", "bpc")]
        assert observed == baseline
        assert len(obs.TRACER) > 0  # it really was recording

    def test_snapshot_all_is_empty_when_disabled(self):
        assert not obs.any_enabled()
        snap = obs.snapshot_all()
        assert snap == {
            "trace": None, "metrics": None, "audit": None, "profile": None,
        }
        obs.merge_all(snap)  # no-op, no error


class TestFlagsPlumbing:
    def test_enabled_flags_roundtrip(self):
        obs.TRACER.enable()
        obs.AUDIT.enable()
        flags = obs.enabled_flags()
        assert flags == (True, False, True, False)
        obs.TRACER.enable(False)
        obs.AUDIT.enable(False)
        obs.apply_flags(flags)
        assert obs.enabled_flags() == flags
        obs.apply_flags(None)  # tolerated
        assert obs.enabled_flags() == flags


@pytest.mark.parallel
class TestParallelDeterminism:
    def _suite_run(self, jobs):
        obs.reset_all()
        suite = specfp_suite(0.02, seed=0)
        rf = platform_rv1().file_for(4)
        run_suite(suite, rf, "bpc", file_key="rv1:4", jobs=jobs)
        return suite

    def test_merged_span_tree_matches_serial(self):
        obs.TRACER.enable()
        suite = self._suite_run(jobs=1)
        serial_tree = obs.TRACER.span_tree()
        self._suite_run(jobs=4)
        parallel_tree = obs.TRACER.span_tree()
        assert parallel_tree == serial_tree
        # One lane (proc) per program, named, in suite order.
        lanes = list(dict.fromkeys(s["proc"] for s in obs.TRACER.spans))
        assert lanes == [p.name for p in suite.programs]
        # The tree is the phase structure: program -> function -> pipeline.
        assert parallel_tree[0]["category"] == "program"
        fn = parallel_tree[0]["children"][0]
        assert fn["category"] == "function"
        assert fn["children"][0]["name"] == "pipeline"

    def test_merged_chrome_trace_is_valid(self, tmp_path):
        obs.TRACER.enable()
        self._suite_run(jobs=4)
        path = tmp_path / "trace.json"
        obs.TRACER.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}

    def test_structural_metrics_match_serial(self):
        obs.METRICS.enable()
        self._suite_run(jobs=1)
        serial = obs.METRICS.to_json()
        self._suite_run(jobs=4)
        parallel = obs.METRICS.to_json()
        assert parallel["counters"] == serial["counters"]
        assert parallel["gauges"].keys() == serial["gauges"].keys()
        for name, g in parallel["gauges"].items():
            assert g["samples"] == serial["gauges"][name]["samples"]
        # Histogram counts are deterministic; wall-clock totals are not.
        for name, h in parallel["histograms"].items():
            assert h["count"] == serial["histograms"][name]["count"]

    def test_audit_merges_across_the_pool(self):
        obs.AUDIT.enable()
        self._suite_run(jobs=1)
        serial = obs.AUDIT.to_json()
        self._suite_run(jobs=4)
        parallel = obs.AUDIT.to_json()
        assert parallel == serial


class TestCliFlags:
    def test_trace_metrics_explain_write_outputs(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        code = cli.main([
            "--trace", str(trace),
            "--metrics", str(metrics),
            "--explain", "v3",
            "allocate", "--method", "bpc",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "wrote" in err
        assert "%v3" in err  # the explain rendering
        tdoc = json.loads(trace.read_text())
        assert any(e.get("cat") == "pass" for e in tdoc["traceEvents"])
        mdoc = json.loads(metrics.read_text())
        assert "prescount.rcg_nodes" in mdoc["counters"]

    def test_metrics_dash_renders_table(self, capsys):
        code = cli.main(["--metrics", "-", "allocate", "--method", "bpc"])
        assert code == 0
        assert "metrics" in capsys.readouterr().err

    def test_explain_normalizes_vreg_spellings(self):
        assert cli._normalize_vreg("5") == "%v5"
        assert cli._normalize_vreg("v5") == "%v5"
        assert cli._normalize_vreg("%v5") == "%v5"

    def test_flags_off_leaves_layers_disabled(self, capsys):
        code = cli.main(["allocate", "--method", "non"])
        assert code == 0
        assert not obs.any_enabled()
        assert len(obs.TRACER) == 0
