"""Loadgen harness: seeded schedules, fleet runs, history gating."""

from __future__ import annotations

import collections
import json

from repro.experiments.history import diff_records, write_record
from repro.service import (
    LoadgenConfig,
    LocalShard,
    ServiceConfig,
    ShardRouter,
    loadgen_record,
    run_loadgen,
)
from repro.service.loadgen import (
    build_kernel_pool,
    build_schedule,
    percentile,
)


def small_config(**overrides):
    defaults = dict(
        seed=7,
        requests=24,
        pool=6,
        sample=3,
        phases=((0.05, 400.0), (0.05, 1200.0)),
        deadline_frac=0.25,
    )
    defaults.update(overrides)
    return LoadgenConfig(**defaults)


def run_fleet(config, shards=3):
    router = ShardRouter(
        [LocalShard(f"s{i}", ServiceConfig()) for i in range(shards)]
    )
    try:
        return run_loadgen(router, config)
    finally:
        router.close()


# ----------------------------------------------------------------------
# Schedule generation
# ----------------------------------------------------------------------
def test_schedule_deterministic_for_seed():
    config = small_config()
    first = build_schedule(config)
    second = build_schedule(config)
    assert first == second
    assert len(first) == config.requests
    assert build_schedule(small_config(seed=8)) != first


def test_schedule_arrival_times_monotone_and_phased():
    schedule = build_schedule(small_config(requests=100))
    times = [arrival.at_s for arrival in schedule]
    assert times == sorted(times)
    assert times[0] >= 0.0
    # The second phase is 3x the rate of the first: arrivals after the
    # 0.05 s phase boundary must be denser than before it.
    early = sum(1 for t in times if t < 0.05)
    late = sum(1 for t in times if 0.05 <= t < 0.10)
    assert late > early


def test_schedule_zipf_head_is_hot():
    schedule = build_schedule(small_config(requests=400, zipf_s=1.4))
    counts = collections.Counter(a.kernel for a in schedule)
    ranked = [count for _, count in counts.most_common()]
    assert ranked[0] > ranked[-1]  # skew, not uniform
    assert counts.most_common(1)[0][1] >= 400 / 6  # head beats fair share


def test_schedule_deadline_mix_respects_fraction():
    schedule = build_schedule(small_config(requests=200, deadline_frac=0.5))
    with_deadline = [a for a in schedule if a.deadline_ms is not None]
    assert 0.3 * 200 < len(with_deadline) < 0.7 * 200
    menu = set(LoadgenConfig().deadline_choices_ms)
    assert {a.deadline_ms for a in with_deadline} <= menu
    none_config = small_config(deadline_frac=0.0)
    assert all(a.deadline_ms is None for a in build_schedule(none_config))


def test_kernel_pool_deterministic_and_distinct():
    config = small_config()
    pool = build_kernel_pool(config)
    assert pool == build_kernel_pool(config)
    assert len(pool) == config.pool
    assert len(set(pool)) == config.pool


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 99.9) == 100.0
    assert percentile([], 50) is None


# ----------------------------------------------------------------------
# Fleet runs
# ----------------------------------------------------------------------
def test_fleet_run_full_goodput_and_sample_identity():
    report = run_fleet(small_config())
    assert report["requests"] == 24
    assert report["goodput"] == 24
    assert report["failed"] == 0
    assert report["verify_failed"] == 0
    assert report["samples"]["checked"] > 0
    assert report["samples"]["mismatched"] == 0
    assert report["samples"]["matched"] == report["samples"]["checked"]
    assert sum(report["shards"].values()) == 24
    latency = report["latency_ms"]
    assert latency["p50"] <= latency["p99"] <= latency["p999"]


def test_fleet_run_routing_counts_deterministic():
    config = small_config()
    first = run_fleet(config)
    second = run_fleet(config)
    # Same seed ⇒ same kernels to the same shards, every run.
    assert first["shards"] == second["shards"]
    assert first["goodput"] == second["goodput"]


def test_single_shard_matches_multi_shard_responses():
    # Sample bit-identity holds regardless of fleet size: the check in
    # run_loadgen compares every sampled response against a direct
    # single-process build, so mismatched == 0 here *is* the cross-fleet
    # identity guarantee.
    report = run_fleet(small_config(), shards=1)
    assert report["goodput"] == 24
    assert report["samples"]["mismatched"] == 0
    assert list(report["shards"]) == ["s0"]


# ----------------------------------------------------------------------
# History records and gating
# ----------------------------------------------------------------------
def test_loadgen_record_schema_and_write(tmp_path):
    config = small_config()
    report = run_fleet(config)
    record = loadgen_record(report, config, label="unit")
    assert record["schema"] == 1
    assert record["label"] == "unit"
    assert record["config"]["kind"] == "loadgen"
    assert record["programs"] == {}
    load = record["loadgen"]
    assert load["goodput"] == 24
    assert load["latency_ms"]["p50"] is not None
    path = write_record(record, str(tmp_path), prefix="LOADGEN")
    assert path.split("/")[-1].startswith("LOADGEN_")
    assert json.loads(open(path).read())["loadgen"]["goodput"] == 24


def test_diff_gates_goodput_drop_and_verify_failures():
    config = small_config()
    report = run_fleet(config)
    record = loadgen_record(report, config, label="base")
    clean = diff_records(record, record)
    assert clean.regressions == []
    assert clean.exit_code() == 0

    worse = json.loads(json.dumps(record))
    worse["loadgen"]["goodput"] -= 6
    worse["loadgen"]["failed"] += 6
    result = diff_records(record, worse)
    assert {d.metric for d in result.regressions} == {"goodput", "failed"}
    assert result.has_regressions and result.exit_code() == 1

    bad_verify = json.loads(json.dumps(record))
    bad_verify["loadgen"]["verify_failed"] = 1
    bad_verify["loadgen"]["samples"]["mismatched"] = 2
    result = diff_records(record, bad_verify)
    metrics = {d.metric for d in result.regressions}
    assert {"verify_failed", "sample_mismatched"} <= metrics


def test_diff_latency_and_balance_never_gate():
    config = small_config()
    record = loadgen_record(run_fleet(config), config, label="base")
    slower = json.loads(json.dumps(record))
    slower["loadgen"]["latency_ms"]["p999"] = 9999.0
    slower["loadgen"]["throughput_rps"] = 0.001
    names = list(slower["loadgen"]["shards"])
    slower["loadgen"]["shards"] = {n: 1 for n in names}  # rebalanced
    result = diff_records(record, slower)
    assert result.regressions == []
    assert result.latency_notes  # informational only
    assert result.exit_code() == 0


def test_fingerprint_excludes_fleet_topology():
    # The same scenario must diff across fleet sizes (1 shard vs 3), so
    # the record's config block carries generation parameters only.
    config = small_config()
    fingerprint = config.fingerprint()
    assert fingerprint["kind"] == "loadgen"
    assert "shards" not in fingerprint
    one = loadgen_record(run_fleet(config, shards=1), config, label="one")
    three = loadgen_record(run_fleet(config, shards=3), config, label="three")
    result = diff_records(one, three)
    assert result.config_mismatches == []
    assert result.regressions == []
