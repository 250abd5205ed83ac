"""``repro measure``: machine selection, sweeps, dumps, history gating.

The parity proof the ``ooo-smoke`` CI job runs with ``cmp`` is asserted
here at the byte level: ``repro measure --out`` dumps for the in-order
machine and the degenerate OoO configuration must be *identical files*,
and the dump must be byte-stable across ``--jobs`` counts.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

#: Fast global flags: tiny DSA suite, serial, fixed seed.
FAST = ["--idft-points", "6", "--jobs", "1"]


def measure(tmp_path, *extra, jobs="1"):
    argv = ["--idft-points", "6", "--jobs", jobs, "measure", "--suite",
            "DSA-OP", *extra]
    return main(argv)


class TestParser:
    def test_measure_defaults(self):
        args = build_parser().parse_args(["measure"])
        assert args.machine == "dsa"
        assert args.suite == "DSA-OP"
        assert args.platform == "dsa"
        assert args.banks == 0
        assert args.rob == 32 and args.iq == 16
        assert not args.no_rename
        assert args.method is None and args.issue_width is None

    def test_measure_flags_parse(self):
        args = build_parser().parse_args(
            ["measure", "--machine", "ooo", "--issue-width", "1",
             "--issue-width", "4", "--read-ports", "2", "--no-rename",
             "--method", "bpc", "--program", "idft"]
        )
        assert args.machine == "ooo"
        assert args.issue_width == [1, 4]
        assert args.read_ports == [2]
        assert args.no_rename and args.method == ["bpc"]

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["measure", "--machine", "vliw"])


class TestDsaMeasure:
    def test_prints_cycle_table(self, capsys):
        assert measure(None) == 0
        out = capsys.readouterr().out
        assert "DSA in-order cycles" in out
        assert "conflict cycles" in out
        for method in ("non", "bcr", "bpc"):
            assert method in out


class TestOooMeasure:
    def test_prints_survival_table(self, capsys):
        assert measure(
            None, "--machine", "ooo",
            "--issue-width", "1", "--read-ports", "1",
        ) == 0
        out = capsys.readouterr().out
        assert "conflict-penalty survival" in out
        assert "survival%" in out
        assert "in-order baseline" in out

    def test_degenerate_survival_is_pinned_at_100(self, capsys):
        assert measure(
            None, "--machine", "ooo", "--no-rename",
            "--issue-width", "1", "--read-ports", "1",
        ) == 0
        assert " 100 " in capsys.readouterr().out
        # Exactly 100.0, not approximately: the parity proof makes the
        # degenerate conflict-cycle delta equal the in-order delta.
        from repro.experiments import ExperimentContext, ooo_sweep

        ctx = ExperimentContext(idft_points=6, jobs=1)
        sweep = ooo_sweep(ctx, widths=(1,), ports=(1,), rename=False)
        for row in sweep["rows"]:
            assert row["survival_pct"] == {"bcr": 100.0, "bpc": 100.0}


class TestParityDump:
    def test_degenerate_dump_is_byte_identical_to_dsa(self, tmp_path, capsys):
        # DSA-OP on the 2x4 bank-subgroup file, then SPECfp on RV#2's flat
        # 2-bank file, where neither machine may charge alignment cycles.
        for workload in ((), ("--suite", "SPECfp", "--platform", "rv2",
                              "--banks", "2")):
            dsa_out = tmp_path / "dsa.json"
            deg_out = tmp_path / "degenerate.json"
            assert measure(tmp_path, *workload, "--out", str(dsa_out)) == 0
            assert measure(
                tmp_path, *workload, "--machine", "ooo", "--no-rename",
                "--issue-width", "1", "--read-ports", "1",
                "--out", str(deg_out),
            ) == 0
            capsys.readouterr()
            assert dsa_out.read_bytes() == deg_out.read_bytes()
            payload = json.loads(dsa_out.read_text())
            assert set(payload) == {"non", "bcr", "bpc"}
            assert all(payload.values())
        assert all(
            row["alignment_cycles"] == 0.0
            for rows in payload.values() for row in rows.values()
        )

    def test_dump_is_byte_stable_across_jobs(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        assert measure(
            tmp_path, "--machine", "ooo", "--issue-width", "2",
            "--read-ports", "2", "--out", str(serial), jobs="1",
        ) == 0
        assert measure(
            tmp_path, "--machine", "ooo", "--issue-width", "2",
            "--read-ports", "2", "--out", str(pooled), jobs="2",
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == pooled.read_bytes()

    def test_non_degenerate_dump_differs_from_dsa(self, tmp_path, capsys):
        dsa_out = tmp_path / "dsa.json"
        wide_out = tmp_path / "wide.json"
        assert measure(tmp_path, "--out", str(dsa_out)) == 0
        assert measure(
            tmp_path, "--machine", "ooo",
            "--issue-width", "4", "--read-ports", "4",
            "--out", str(wide_out),
        ) == 0
        capsys.readouterr()
        assert dsa_out.read_bytes() != wide_out.read_bytes()


class TestHistoryGating:
    def run_record(self, tmp_path, capsys):
        history = tmp_path / "history"
        assert measure(
            tmp_path, "--machine", "ooo",
            "--issue-width", "1", "--read-ports", "1",
            "--method", "non", "--method", "bpc",
            "--record", str(history),
        ) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        records = sorted(history.glob("OOO_*.json"))
        assert len(records) == 1
        return records[0]

    def test_record_and_self_diff_passes(self, tmp_path, capsys):
        record = self.run_record(tmp_path, capsys)
        payload = json.loads(record.read_text())
        assert payload["ooo"]["suite"] == "DSA-OP"
        assert any(k.startswith("OOO/DSA-OP/w1p1/") for k in payload["programs"])
        assert main(
            FAST + ["bench", "diff", str(record), str(record)]
        ) == 0
        assert "regressions: 0" in capsys.readouterr().out.lower()

    def test_diff_flags_cycle_regression(self, tmp_path, capsys):
        record = self.run_record(tmp_path, capsys)
        payload = json.loads(record.read_text())
        worse = dict(payload)
        worse["programs"] = {
            key: dict(entry) for key, entry in payload["programs"].items()
        }
        for entry in worse["programs"].values():
            if entry.get("cycles"):
                entry["cycles"] *= 1.5
        worse["totals"] = dict(payload["totals"])
        worse["totals"]["cycles"] *= 1.5
        regressed = record.parent / "OOO_regressed.json"
        regressed.write_text(json.dumps(worse))
        assert main(
            FAST + ["bench", "diff", str(record), str(regressed)]
        ) == 1
        assert "regression" in capsys.readouterr().out.lower()
