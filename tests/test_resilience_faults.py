"""Fault-injection framework: plan validation, determinism, accounting."""

from __future__ import annotations

import json

import pytest

from repro.resilience import FAULTS, FaultError, FaultPlan, load_plan
from repro.resilience.faults import FaultInjector, FaultPoint


@pytest.fixture(autouse=True)
def disarm():
    """Never leak an armed plan into other tests."""
    yield
    FAULTS.disarm()


# ----------------------------------------------------------------------
# Plan validation
# ----------------------------------------------------------------------
def test_unknown_site_and_mode_rejected():
    with pytest.raises(FaultError):
        FaultPoint(site="cache.disk.mangle", mode="bitflip")
    with pytest.raises(FaultError):
        FaultPoint(site="cache.disk.read", mode="duplicate")
    with pytest.raises(FaultError, match="does not support mode 'death'"):
        FaultPoint(site="queue.execute", mode="death")
    with pytest.raises(FaultError, match="prob"):
        FaultPoint(site="queue.execute", mode="error", prob=1.5)
    with pytest.raises(FaultError, match="after"):
        FaultPoint(site="queue.execute", mode="error", after=-1)


def test_unknown_site_error_lists_valid_sites():
    """A typo'd plan must say what *would* have been accepted — the
    difference between a 5-second fix and a debugging session."""
    from repro.resilience.faults import SITES

    with pytest.raises(FaultError) as err:
        FaultPoint(site="queue.jornal", mode="torn-write")
    message = str(err.value)
    assert "queue.jornal" in message
    for site in SITES:
        assert site in message


def test_unknown_mode_error_lists_site_modes():
    with pytest.raises(FaultError) as err:
        FaultPoint(site="queue.journal", mode="torn")
    message = str(err.value)
    assert "queue.journal" in message
    for mode in ("torn-write", "error"):
        assert mode in message


def test_non_dict_detail_rejected():
    with pytest.raises(FaultError) as err:
        FaultPoint(site="queue.journal", mode="torn-write", detail=0.5)
    assert "detail" in str(err.value)
    # The valid spelling of the same intent.
    FaultPoint(site="queue.journal", mode="torn-write", detail={"keep": 0.5})


def test_durability_sites_registered():
    """The chaos suite's new sites exist with exactly these modes."""
    from repro.resilience.faults import SITES

    assert SITES["queue.journal"] == ("torn-write", "error")
    assert "kill9" in SITES["shard.worker"]


def test_plan_from_dict_validates_keys():
    plan = FaultPlan.from_dict(
        {"seed": 7, "faults": [{"site": "queue.execute", "mode": "error"}]}
    )
    assert plan.seed == 7
    assert len(plan.points) == 1
    with pytest.raises(FaultError):
        FaultPlan.from_dict({"seeds": 7})
    with pytest.raises(FaultError):
        FaultPlan.from_dict({"faults": [{"site": "queue.execute"}]})
    with pytest.raises(FaultError):
        FaultPlan.from_dict({"faults": [{"site": "queue.execute", "mode": "error", "when": 3}]})


def test_load_plan_round_trips(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "seed": 42,
        "faults": [{"site": "cache.disk.read", "mode": "bitflip", "times": 1}],
    }))
    plan = load_plan(str(path))
    assert plan.seed == 42
    assert plan.points[0].mode == "bitflip"
    with pytest.raises(FaultError):
        load_plan(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FaultError):
        load_plan(str(bad))


# ----------------------------------------------------------------------
# Firing semantics
# ----------------------------------------------------------------------
def test_times_after_and_match_accounting():
    plan = FaultPlan(points=[
        FaultPoint(site="queue.execute", mode="error",
                   times=2, after=1, match="bpc"),
    ])
    # Encounter 1 is skipped by `after`; non-matching labels never count.
    assert plan.fire("queue.execute", "non") is None
    assert plan.fire("queue.execute", "bpc") is None      # after=1
    assert plan.fire("queue.execute", "bpc") is not None  # inject 1
    assert plan.fire("queue.execute", "bpc") is not None  # inject 2
    assert plan.fire("queue.execute", "bpc") is None      # budget spent
    stats = plan.stats()
    assert stats["injected_total"] == 2
    assert stats["rules"][0]["encounters"] == 4


def test_probabilistic_rules_are_deterministic_per_seed():
    def pattern(seed: int) -> list[bool]:
        plan = FaultPlan(seed=seed, points=[
            FaultPoint(site="server.request", mode="error", prob=0.5),
        ])
        return [plan.fire("server.request") is not None for _ in range(32)]

    assert pattern(0) == pattern(0)
    assert pattern(1) == pattern(1)
    assert pattern(0) != pattern(1)  # astronomically unlikely to match
    assert any(pattern(0)) and not all(pattern(0))


def test_corrupt_modes_are_deterministic():
    injector = FaultInjector()
    injector.arm(FaultPlan(points=[
        FaultPoint(site="cache.disk.read", mode="bitflip",
                   detail={"byte": 3, "bit": 0}),
    ]))
    data = b"0123456789"
    corrupted, point = injector.corrupt("cache.disk.read", data)
    assert point is not None
    assert corrupted != data
    assert corrupted[3] == data[3] ^ 1
    assert len(corrupted) == len(data)

    injector.arm(FaultPlan(points=[
        FaultPoint(site="cache.disk.read", mode="truncate", detail={"keep": 4}),
    ]))
    corrupted, _ = injector.corrupt("cache.disk.read", data)
    assert corrupted == data[:4]

    injector.arm(FaultPlan(points=[
        FaultPoint(site="cache.disk.read", mode="garbage"),
    ]))
    corrupted, _ = injector.corrupt("cache.disk.read", data)
    assert b"garbage" in corrupted


def test_disarmed_injector_is_inert():
    injector = FaultInjector()
    assert injector.enabled is False
    assert injector.fire("queue.execute") is None
    assert injector.corrupt("cache.disk.read", b"abc") == (b"abc", None)
    assert injector.stats() is None


def test_env_arming(tmp_path, monkeypatch):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "faults": [{"site": "queue.execute", "mode": "stall"}],
    }))
    monkeypatch.setenv("REPRO_FAULTS", str(path))
    from repro.resilience.faults import _arm_from_env

    _arm_from_env()
    assert FAULTS.enabled
    assert FAULTS.plan is not None
    assert FAULTS.plan.points[0].mode == "stall"
