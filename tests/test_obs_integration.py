"""Observability end to end: zero overhead off, deterministic merged on.

The two load-bearing guarantees:

* with the recorder off, pipeline outputs are byte-identical to a run
  that never heard of ``repro.obs``, and with every view on they are
  still byte-identical;
* a ``--jobs N`` suite run merges worker spans into a tree structurally
  identical to the serial run's, so every view over it matches too.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.banks import BankedRegisterFile
from repro.experiments.harness import _run_program_task, run_suite
from repro.ir import print_function
from repro.prescount import PipelineConfig, run_pipeline
from repro.sim import analyze_static
from repro.sim.machine import platform_rv1
from repro.workloads.specfp import specfp_suite

from .conftest import build_mac_kernel


ALL_VIEWS = ("metrics", "explain", "profile")


@pytest.fixture(autouse=True)
def _restore_globals():
    yield
    obs.TRACER.enable(False, views=())
    obs.TRACER.reset()


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
        assert obs.TRACER.spans == []

    def test_outputs_identical_with_and_without_observability(self):
        baseline = [allocate_and_render(m) for m in ("non", "bcr", "bpc")]
        obs.TRACER.enable(views=ALL_VIEWS)
        observed = [allocate_and_render(m) for m in ("non", "bcr", "bpc")]
        assert observed == baseline
        spans = obs.TRACER.spans
        assert len(spans) > 0  # it really was recording
        assert obs.decisions(spans)  # ... every producer included
        assert obs.metrics_doc(spans)["counters"]

    def test_snapshot_all_is_empty_when_disabled(self):
        """A worker whose parent does not record ships no spans back."""
        suite = specfp_suite(0.02, seed=0)
        payload = (suite.programs[0], platform_rv1().file_for(4), "bpc",
                   {"suite_name": suite.name}, None)
        result, spans = _run_program_task(payload)
        assert spans is None
        assert result.functions > 0
        assert len(obs.TRACER) == 0


class TestFlagsPlumbing:
    def test_enabled_flags_roundtrip(self):
        """The payload carries the parent's views to the worker, which
        runs exactly those producers and resets around the task."""
        suite = specfp_suite(0.02, seed=0)
        payload = (suite.programs[0], platform_rv1().file_for(4), "bpc",
                   {"suite_name": suite.name}, frozenset({"explain"}))
        result, spans = _run_program_task(payload)
        assert obs.TRACER.enabled and obs.TRACER.views == {"explain"}
        assert len(obs.TRACER) == 0  # the task's spans left with it
        assert obs.decisions(spans)
        assert not obs.Profile(spans).sites  # profile was not asked for
        assert {s["trace"] for s in spans if s["cat"] == "program"}


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
        obs.TRACER.enable(views=("metrics",))
        self._suite_run(jobs=1)
        serial = obs.metrics_doc(obs.TRACER.spans)
        self._suite_run(jobs=4)
        parallel = obs.metrics_doc(obs.TRACER.spans)
        assert parallel["counters"] == serial["counters"]
        assert parallel["gauges"].keys() == serial["gauges"].keys()
        for name, g in parallel["gauges"].items():
            assert g["samples"] == serial["gauges"][name]["samples"]
        # Histogram counts are deterministic; wall-clock totals are not.
        for name, h in parallel["histograms"].items():
            assert h["count"] == serial["histograms"][name]["count"]

    def test_audit_merges_across_the_pool(self):
        obs.TRACER.enable(views=("explain",))
        self._suite_run(jobs=1)
        serial = obs.decisions(obs.TRACER.spans)
        self._suite_run(jobs=4)
        parallel = obs.decisions(obs.TRACER.spans)
        assert parallel == serial
        assert serial


def _count_columns(spans):
    """The ``--pass-stats`` tables without their wall-clock column."""
    passes, analyses = obs.pass_table(spans)
    for row in passes.values():
        del row["seconds"]
    return passes, analyses


def test_pass_stats_counts_match_at_any_job_count():
    """``--pass-stats`` counts at ``--jobs 2`` equal the serial run's:
    each program's pass and analysis spans come back with its spans."""
    suite = specfp_suite(0.02, seed=0)
    rf = platform_rv1().file_for(4)
    obs.TRACER.enable()
    tables = []
    for jobs in (1, 2):
        obs.reset_all()
        run_suite(suite, rf, "bpc", file_key="rv1:4", jobs=jobs)
        tables.append(_count_columns(obs.TRACER.spans))
    assert tables[0] == tables[1]
    passes, analyses = tables[0]
    assert passes["allocation"]["runs"] == sum(1 for _ in suite.functions())
    assert analyses["LiveIntervals"]["hits"] > 0


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
        assert not obs.TRACER.enabled and not obs.TRACER.views
        assert len(obs.TRACER) == 0

    def test_pass_stats_prints_both_tables(self, capsys):
        assert cli.main(["--pass-stats", "allocate", "--method", "bpc"]) == 0
        err = capsys.readouterr().err
        assert "bank-assignment" in err and "LiveIntervals" in err
        # --pass-stats records spans but runs no expensive producer.
        assert obs.TRACER.enabled and not obs.TRACER.views
