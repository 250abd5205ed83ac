"""Smoke tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import alloc_workloads  # noqa: E402
import run as bench_run  # noqa: E402
import serve_workload  # noqa: E402
import speed  # noqa: E402
from common import E2E_METRICS, LAYER_METRICS, LEDGER_TOLERANCE  # noqa: E402

DSA_SMALL = ("reduce", "red-ur", "shruse", "dw-conv2d", "idft")


def _deterministic(outcome) -> dict:
    """What must repeat exactly for one seed: quality counts and the
    analysis and cache counters."""
    counts = {k: v for k, v in outcome.report.items() if v[1] in ("count", "cycles")}
    layers = {
        k: v for k, v in outcome.layers.items()
        if k.endswith((".requests", ".hit_ratio", ".invalidations"))
        or k in ("queue.coalesced", "journal.frames_per_miss")
    }
    return {"counts": counts, "layers": layers, "attempted": outcome.attempted}


def _assert_emitted(outcome) -> None:
    for trace, table in ((False, E2E_METRICS), (True, LAYER_METRICS)):
        metrics = bench_run.metrics_of(outcome, trace)
        assert list(metrics) == list(table)
        for name, unit in table.items():
            assert metrics[name]["unit"] == unit
            assert isinstance(metrics[name]["value"], (int, float))
    for name in ("setup_s", "cpu_ms_per_op"):
        assert outcome.e2e[name] > 0
    assert outcome.report["slowdown"][0] > 0


def _assert_reconciled(outcome) -> None:
    total = sum(seconds for _, seconds in outcome.ledger)
    assert total == pytest.approx(outcome.ledger_wall_s, rel=1e-3)
    assert outcome.layers["ledger.unattributed_pct"] <= LEDGER_TOLERANCE * 100
    assert outcome.spans is not None
    assert outcome.spans.chrome_trace()["traceEvents"]


def test_speed_probe_samples_scales_and_stops():
    affinity = os.sched_getaffinity(0)
    with speed.SpeedProbe(every_s=0.001, pin=True) as probe:
        assert len(os.sched_getaffinity(0)) == 1
        deadline = time.monotonic() + 10
        while probe.mark() < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert os.sched_getaffinity(0) == affinity
    assert probe.mark() >= 3 and probe.cpu_s > 0
    count = probe.mark()
    time.sleep(0.01)
    assert probe.mark() == count  # the thread has stopped
    slowdown = probe.slowdown()
    assert slowdown > 0
    assert probe.scale(2.0, 0) == pytest.approx(2.0 / slowdown)
    assert probe.scale(2.0, 0, elasticity=2.0) == pytest.approx(2.0 / slowdown ** 2)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)


@pytest.mark.parametrize(
    "work",
    [alloc_workloads.specfp_rv2(scale=0.005),
     alloc_workloads.dsa_op(idft_points=4, kernels=DSA_SMALL)],
    ids=["specfp-rv2", "dsa-op"],
)
def test_alloc_workload_smoke(work):
    first = alloc_workloads.run(work, seed=3, seconds=0.0, trace=True)
    assert first.correct, first.failures
    _assert_emitted(first)
    _assert_reconciled(first)
    assert first.layers["pass.allocation.self_s"] > 0
    assert (first.layers["pass.sdg-split.self_s"] > 0) == (work.name == "dsa-op")
    second = alloc_workloads.run(work, seed=3, seconds=0.0, trace=True)
    assert _deterministic(second) == _deterministic(first)


def test_serve_workload_smoke(tmp_path):
    work = serve_workload.ServeWorkload(
        hot=4, miss_base=4, rate=10.0, ladder=(), setup_repeats=1, samples=4
    )
    runs = []
    for attempt in range(2):
        outcome = serve_workload.run(
            work, seed=5, seconds=1.5, trace=bool(attempt), src=os.path.join(ROOT, "src"),
            scratch=str(tmp_path / f"run{attempt}"),
        )
        assert outcome.correct, outcome.failures
        _assert_emitted(outcome)
        runs.append(outcome)
    _assert_reconciled(runs[1])
    assert runs[1].layers["http.submit.hit.ms"] > 0
    assert runs[1].layers["cache.requests"] > 0
    for name in ("hot_requests", "miss_requests", "static_conflicts_bpc", "cycles_bpc"):
        assert runs[0].report[name] == runs[1].report[name]
    assert not os.listdir(tmp_path)  # fleet caches and journals are removed


def test_exits_nonzero_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dsa-op", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert "{" not in result.stdout
