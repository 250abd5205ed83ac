"""Benchmark regression observatory: records, diffs, CI gating."""

from __future__ import annotations

import copy
import json

import pytest

from repro import cli
from repro.experiments import (
    SCHEMA_VERSION,
    ExperimentContext,
    RecordError,
    collect_record,
    diff_records,
    load_record,
    write_record,
)
from repro.experiments.history import CANONICAL_COMBOS, REGRESSION_METRICS


def make_record(**overrides) -> dict:
    """A small, hand-built schema-1 record (no suite runs needed)."""
    record = {
        "schema": SCHEMA_VERSION,
        "label": "test",
        "created": "2026-08-06T00:00:00Z",
        "config": {
            "spec_scale": 0.02, "cnn_scale": 0.2,
            "idft_points": 8, "seed": 0,
        },
        "wall_seconds": 1.0,
        "programs": {
            "SPECfp/rv2:2/non/alpha": {
                "reles": 100, "static_conflicts": 40,
                "dynamic_conflicts": 30, "spills": 4, "copies": 0,
                "cycles": None,
            },
            "DSA-OP/dsa:0/bpc/idft": {
                "reles": 50, "static_conflicts": 2,
                "dynamic_conflicts": None, "spills": 0, "copies": 10,
                "cycles": 650.0,
            },
        },
        "totals": {
            "reles": 150, "static_conflicts": 42, "dynamic_conflicts": 30,
            "spills": 4, "copies": 10, "cycles": 650.0,
        },
    }
    record.update(overrides)
    return record


class TestRecordIO:
    def test_write_load_roundtrip(self, tmp_path):
        record = make_record()
        path = write_record(record, str(tmp_path))
        assert "BENCH_" in path and path.endswith(".json")
        assert load_record(path) == record

    def test_same_second_records_do_not_clobber(self, tmp_path):
        first = write_record(make_record(), str(tmp_path))
        second = write_record(make_record(label="again"), str(tmp_path))
        assert first != second
        assert load_record(first)["label"] == "test"
        assert load_record(second)["label"] == "again"

    def test_load_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make_record(schema=SCHEMA_VERSION + 1)))
        with pytest.raises(RecordError, match="schema"):
            load_record(str(path))

    def test_load_rejects_non_records(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("[1, 2]")
        with pytest.raises(RecordError):
            load_record(str(garbage))
        with pytest.raises(RecordError):
            load_record(str(tmp_path / "missing.json"))


class TestDiff:
    def test_identical_records_are_clean(self):
        report = diff_records(make_record(), make_record())
        assert report.exit_code() == 0
        assert not report.regressions and not report.improvements
        assert report.compared == len(REGRESSION_METRICS) * 2 - 2  # 2 None

    def test_older_latency_fields_still_read(self):
        """Older records carry bare_ms / flat_speedup / flat_mode in the
        informational latency block; diffs against them still work."""
        old = make_record(latency={
            "flat_mode": "numpy", "bare_ms": 9.0, "flat_ms": 3.0,
            "incremental_ms": 1.0, "flat_speedup": 3.0,
        })
        new = make_record(latency={"flat_ms": 3.3, "incremental_ms": 1.1})
        report = diff_records(old, new)
        assert report.exit_code() == 0
        assert report.latency_notes == [
            "flat_ms: 3 -> 3.3", "incremental_ms: 1 -> 1.1",
        ]

    def test_flags_injected_regression(self):
        new = make_record()
        # +10% DSA cycles: beyond the default 5% threshold.
        new["programs"]["DSA-OP/dsa:0/bpc/idft"]["cycles"] = 715.0
        report = diff_records(make_record(), new)
        assert report.exit_code() == 1
        (delta,) = report.regressions
        assert delta.metric == "cycles"
        assert delta.pct == pytest.approx(10.0)
        assert "REGRESSION" in report.render()

    def test_threshold_and_abs_floor_gate_small_deltas(self):
        new = make_record()
        new["programs"]["SPECfp/rv2:2/non/alpha"]["static_conflicts"] = 41
        # +2.5% and +1 absolute: below the 5% bar.
        assert diff_records(make_record(), new).exit_code() == 0
        # Tightening the threshold flags it...
        tight = diff_records(make_record(), new, threshold_pct=1.0)
        assert tight.exit_code() == 1
        # ...and a raised absolute floor un-flags it again.
        floored = diff_records(
            make_record(), new, threshold_pct=1.0, abs_floor=2.0
        )
        assert floored.exit_code() == 0

    def test_improvements_do_not_gate(self):
        new = make_record()
        new["programs"]["SPECfp/rv2:2/non/alpha"]["dynamic_conflicts"] = 20
        report = diff_records(make_record(), new)
        assert report.exit_code() == 0
        (delta,) = report.improvements
        assert delta.metric == "dynamic_conflicts"

    def test_config_mismatch_is_not_comparable(self):
        other = make_record()
        other["config"]["seed"] = 7
        report = diff_records(make_record(), other)
        assert report.exit_code() == 2
        assert "seed" in report.render()
        forced = diff_records(
            make_record(), other, allow_config_mismatch=True
        )
        assert forced.exit_code() == 0

    def test_reles_and_program_churn_are_structural_not_gating(self):
        new = make_record()
        new["programs"]["SPECfp/rv2:2/non/alpha"]["reles"] = 120
        del new["programs"]["DSA-OP/dsa:0/bpc/idft"]
        new["programs"]["DSA-OP/dsa:0/bpc/fresh"] = {
            "reles": 1, "static_conflicts": 0, "dynamic_conflicts": None,
            "spills": 0, "copies": 0, "cycles": 1.0,
        }
        report = diff_records(make_record(), new)
        assert report.exit_code() == 0
        assert any("reles changed" in s for s in report.structural)
        assert any(s.startswith("removed:") for s in report.structural)
        assert any(s.startswith("added:") for s in report.structural)


class TestCollect:
    def test_collect_record_structure(self):
        ctx = ExperimentContext(
            spec_scale=0.01, cnn_scale=0.1, idft_points=8, seed=0, jobs=1
        )
        record = collect_record(ctx, label="unit")
        assert record["schema"] == SCHEMA_VERSION
        assert record["label"] == "unit"
        assert record["config"] == {
            "spec_scale": 0.01, "cnn_scale": 0.1,
            "idft_points": 8, "seed": 0,
        }
        prefixes = {
            f"{suite}/{platform}:{banks}/{method}/"
            for suite, platform, banks, method in CANONICAL_COMBOS
        }
        assert {k.rsplit("/", 1)[0] + "/" for k in record["programs"]} == (
            prefixes
        )
        # RV#2 rows carry dynamic conflicts, DSA rows carry cycles.
        for key, entry in record["programs"].items():
            if key.startswith("DSA-OP"):
                assert entry["cycles"] is not None
                assert entry["dynamic_conflicts"] is None
            else:
                assert entry["dynamic_conflicts"] is not None
                assert entry["cycles"] is None
        # Totals really are the per-program sums.
        assert record["totals"]["spills"] == sum(
            e["spills"] for e in record["programs"].values()
        )
        # Determinism: a fresh context reproduces the numbers exactly.
        again = collect_record(
            ExperimentContext(
                spec_scale=0.01, cnn_scale=0.1, idft_points=8, seed=0, jobs=1
            ),
            label="unit",
        )
        assert again["programs"] == record["programs"]
        assert diff_records(record, again).exit_code() == 0


class TestCli:
    def test_bench_record_then_diff_clean(self, tmp_path, capsys):
        args = ["--spec-scale", "0.01", "--cnn-scale", "0.1",
                "--idft-points", "8", "--jobs", "1"]
        assert cli.main(
            [*args, "bench", "record", "--label", "a",
             "--out", str(tmp_path)]
        ) == 0
        assert cli.main(
            [*args, "bench", "record", "--label", "b",
             "--out", str(tmp_path)]
        ) == 0
        first, second = sorted(str(p) for p in tmp_path.glob("BENCH_*.json"))
        capsys.readouterr()
        assert cli.main(["bench", "diff", first, second]) == 0
        assert "RESULT: ok" in capsys.readouterr().out

    def test_bench_diff_exit_codes(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(make_record()))
        regressed_record = make_record()
        regressed_record["programs"]["SPECfp/rv2:2/non/alpha"]["spills"] = 9
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(regressed_record))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(make_record(schema=99)))
        assert cli.main(["bench", "diff", str(old), str(old)]) == 0
        assert cli.main(["bench", "diff", str(old), str(regressed)]) == 1
        assert cli.main(["bench", "diff", str(old), str(schema)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_bench_diff_threshold_flags(self, tmp_path, capsys):
        old_record = make_record()
        new_record = copy.deepcopy(old_record)
        new_record["programs"]["SPECfp/rv2:2/non/alpha"][
            "static_conflicts"
        ] = 41
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(old_record))
        new.write_text(json.dumps(new_record))
        assert cli.main(["bench", "diff", str(old), str(new)]) == 0
        assert cli.main(
            ["bench", "diff", str(old), str(new), "--threshold-pct", "1"]
        ) == 1
        assert cli.main(
            ["bench", "diff", str(old), str(new), "--threshold-pct", "1",
             "--abs-floor", "2"]
        ) == 0


class TestBaselineRecord:
    def test_checked_in_baseline_is_loadable(self):
        import pathlib

        baseline = (
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "results" / "history" / "BENCH_baseline.json"
        )
        record = load_record(str(baseline))
        assert record["schema"] == SCHEMA_VERSION
        assert record["programs"]
