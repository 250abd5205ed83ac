"""Job queue: coalescing, one-job dispatch, stage ledger, degradation."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import obs
from repro.ir import print_function
from repro.resilience import FAULTS, FaultPlan
from repro.resilience.faults import FaultPoint
from repro.service import (
    AllocationService,
    RequestError,
    ServiceConfig,
    TierCostModel,
    cache_key,
    ladder_from,
    select_tier,
)
from repro.service.queue import Job
from repro.workloads import dsa_suite

from .conftest import build_mac_kernel


def make_request(method="bpc", trip_count=16, **extra):
    request = {
        "ir": print_function(build_mac_kernel(trip_count=trip_count)),
        "file": {"registers": 32, "banks": 2},
        "method": method,
    }
    request.update(extra)
    return request


@pytest.fixture
def service():
    return AllocationService(ServiceConfig())


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
def test_ladder():
    assert ladder_from("bpc") == ("bpc", "bcr", "non")
    assert ladder_from("bcr") == ("bcr", "non")
    assert ladder_from("non") == ("non",)
    with pytest.raises(ValueError):
        ladder_from("best")


def test_select_tier_walks_down_by_budget():
    model = TierCostModel(priors={"bpc": 0.05, "bcr": 0.02, "non": 0.01})
    assert select_tier("bpc", None, model) == ("bpc", False)
    assert select_tier("bpc", 1.0, model) == ("bpc", False)
    assert select_tier("bpc", 0.03, model) == ("bcr", True)
    assert select_tier("bpc", 0.015, model) == ("non", True)
    # Exhausted budget: straight to the bottom rung, never a timeout.
    assert select_tier("bpc", 0.0, model) == ("non", True)
    assert select_tier("bpc", -1.0, model) == ("non", True)
    assert select_tier("non", -1.0, model) == ("non", False)


def test_cost_model_ewma_converges():
    model = TierCostModel(alpha=0.5, priors={"bpc": 1.0})
    model.observe("bpc", 0.0)  # first observation replaces the prior
    assert model.estimate("bpc") == 0.0
    model.observe("bpc", 1.0)
    assert model.estimate("bpc") == pytest.approx(0.5)
    snap = model.snapshot()
    assert snap["bpc"]["observations"] == 2


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_cold_run_then_hit_bit_identical(service):
    job = service.submit(make_request())
    assert (job.status, job.cache) == ("queued", "miss")
    assert service.process_once() == 1
    assert job.status == "done"
    assert job.served_method == "bpc" and not job.degraded

    again = service.submit(make_request())
    assert (again.status, again.cache) == ("done", "hit")
    assert again.artifact == job.artifact  # bit-identical bytes
    assert json.loads(again.artifact)["key"] == job.key


def test_coalescing_executes_exactly_once(service):
    first = service.submit(make_request())
    dupes = [service.submit(make_request()) for _ in range(4)]
    assert all(d is first for d in dupes)
    assert first.coalesced == 4
    assert service.process_once() == 1  # one queued job, one execution
    assert service.process_once() == 0  # nothing left
    assert first.status == "done"
    assert service.counters["executed"] == 1
    assert service.counters["coalesced"] == 4


def test_concurrent_duplicate_submissions_execute_once():
    service = AllocationService(ServiceConfig())
    request = make_request()
    jobs, errors = [], []

    def submit():
        try:
            jobs.append(service.submit(request))
        except Exception as exc:  # pragma: no cover - defensive
            errors.append(exc)

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    while service.process_once():
        pass
    assert all(job.status == "done" for job in jobs)
    assert len({id(job) for job in jobs}) == 1  # all coalesced
    assert service.counters["executed"] == 1
    assert service.counters["requests"] == 8


def test_dispatch_runs_one_job_at_a_time_in_submission_order(service):
    jobs = [
        service.submit(make_request(trip_count=8 + i)) for i in range(5)
    ]
    for done in range(1, 6):
        assert service.process_once() == 1
        assert [j.status for j in jobs] == (
            ["done"] * done + ["queued"] * (5 - done)
        )
    assert service.process_once() == 0
    assert service.counters["executed"] == 5


# ----------------------------------------------------------------------
# Each job runs on its own clock
# ----------------------------------------------------------------------
DSA_FILE = {"registers": 64, "banks": 2, "subgroups": 4}


def test_stages_add_up_to_the_latency_of_queued_misses():
    # Four misses queued before the dispatcher runs: the wait behind the
    # jobs ahead lands in each job's queue_wait, not in no stage.
    irs = {fn.name: print_function(fn) for fn in dsa_suite(0, 8).functions()}
    service = AllocationService(ServiceConfig(verify="off"))
    jobs = [
        service.submit({"ir": irs[name], "file": dict(DSA_FILE)})
        for name in ("reduce", "red-ur", "shruse", "sr-ur")
    ]
    while service.process_once():
        pass
    ahead = 0.0
    for job in jobs:
        assert job.status == "done" and job.cache == "miss"
        assert set(job.stages) == {"cache", "queue_wait", "alloc"}
        latency = job.finished_mono - job.submitted_mono
        unattributed = latency - sum(job.stages.values())
        assert -1e-9 <= unattributed < 1e-3, (job.function_name, unattributed)
        assert job.stages["queue_wait"] >= ahead
        ahead += job.stages["alloc"]


def test_deadline_is_read_when_the_job_starts():
    # The job ahead stalls 200 ms; the 100 ms budget of the job behind
    # it is spent by the time it starts, so it drops to the bottom rung.
    FAULTS.arm(FaultPlan(seed=0, points=[FaultPoint(
        site="queue.execute", mode="stall", detail={"stall_s": 0.2},
        times=1,
    )]))
    try:
        service = AllocationService(ServiceConfig(verify="off"))
        ahead = service.submit(make_request(trip_count=24))
        behind = service.submit(make_request(deadline_ms=100))
        while service.process_once():
            pass
    finally:
        FAULTS.disarm()
    assert (ahead.served_method, ahead.degraded) == ("bpc", False)
    assert (behind.served_method, behind.degraded) == ("non", True)
    assert behind.stages["queue_wait"] >= 0.2


def test_a_hit_latency_includes_its_verified_probe():
    service = AllocationService(ServiceConfig(verify="strict"))
    service.submit(make_request())
    service.process_once()
    samples = []
    record = service.slo.record

    def spy(**sample):
        samples.append(sample["latency_s"])
        record(**sample)

    service.slo.record = spy
    hit = service.submit(make_request())
    assert hit.cache == "hit" and service.counters["verified"] >= 2
    (latency,) = samples
    assert latency >= hit.stages["cache"] > 0
    assert latency == hit.finished_mono - hit.submitted_mono


def test_deadline_exhausted_degrades_to_bottom_tier(service):
    job = service.submit(make_request(deadline_ms=0))
    service.process_once()
    assert job.status == "done"
    assert job.served_method == "non"
    assert job.degraded
    assert job.requested_method == "bpc"
    assert service.counters["degraded"] == 1
    assert service.counters["tier_non"] == 1
    # The degraded artifact is cached under the *served* tier's key, so
    # an explicit non request now hits.
    non = service.submit(make_request(method="non"))
    assert (non.status, non.cache) == ("done", "hit")
    assert non.artifact == job.artifact
    # ... while a fresh bpc request still executes the full tier.
    full = service.submit(make_request())
    service.process_once()
    assert full.served_method == "bpc" and not full.degraded


def test_degradation_emits_metrics_and_audit(service):
    obs.TRACER.enable()
    obs.reset_all()
    try:
        job = service.submit(make_request(deadline_ms=0))
        service.process_once()
        assert service.counters["degraded"] == 1
        assert service.counters["tier_non"] == 1
        events = [s for s in obs.TRACER.spans if s["name"] == "service.degrade"]
        assert len(events) == 1
        assert events[0]["trace"] == job.trace.trace_id
        assert events[0]["args"]["requested"] == "bpc"
        assert events[0]["args"]["served"] == "non"
        assert events[0]["args"]["remaining_ms"] is not None
    finally:
        obs.TRACER.enable(False)
        obs.reset_all()


def test_each_service_reports_its_own_counts_with_every_view_on():
    """In-process services (a ``LocalShard`` fleet) share one process
    and one recorder, yet each ``/v1/metrics`` sample counts only the
    requests that service took."""
    obs.TRACER.enable(views=("metrics", "explain", "profile"))
    obs.reset_all()
    try:
        first = AllocationService(ServiceConfig())
        second = AllocationService(ServiceConfig())
        for trip in (8, 16, 24):
            first.submit(make_request(trip_count=trip))
        second.submit(make_request(trip_count=32))
        first.process_once()
        second.process_once()
        counts = [svc.metrics_sample()["counters"]["service.requests"]
                  for svc in (first, second)]
        assert counts == [3, 1]
    finally:
        obs.TRACER.enable(False, views=())
        obs.reset_all()


def test_cached_request_beats_deadline_at_full_tier(service):
    service.submit(make_request())
    service.process_once()
    # Same content, hopeless deadline: the hit is free, so the full tier
    # is served rather than degraded.
    job = service.submit(make_request(deadline_ms=0))
    assert (job.status, job.served_method, job.degraded) == ("done", "bpc", False)


def test_invalid_requests_rejected(service):
    with pytest.raises(RequestError):
        service.submit({"ir": ""})
    with pytest.raises(RequestError):
        service.submit({"ir": "func @x { garbage }", "file": {"registers": 8}})
    with pytest.raises(RequestError):
        service.submit(make_request(method="fastest"))
    with pytest.raises(RequestError):
        service.submit({**make_request(), "mystery": 1})
    assert service.counters["executed"] == 0


def test_unallocatable_request_fails_job_not_service(service):
    # 2 registers in 2 banks cannot hold the kernel's pressure; the job
    # fails with a captured error and the service keeps serving.
    job = service.submit(
        {
            "ir": make_request()["ir"],
            "file": {"registers": 2, "banks": 2},
            "method": "non",
        }
    )
    service.process_once()
    assert job.status == "failed"
    assert job.error
    assert service.counters["failed"] == 1
    ok = service.submit(make_request())
    service.process_once()
    assert ok.status == "done"


@pytest.mark.parametrize("name", ["myfunc", "func_a", "defunct"])
def test_function_name_is_the_name_after_func(service, name):
    # "func" inside the name is part of it, not the header keyword.
    ir = make_request()["ir"].replace("func @mac {", f"func @{name} {{")
    job = service.submit({"ir": ir, "file": {"registers": 32, "banks": 2},
                          "method": "bpc"})
    assert job.describe()["function"] == name
    # 2 registers cannot hold the kernel: the job dead-letters at once.
    failed = service.submit({"ir": ir, "file": {"registers": 2, "banks": 2},
                             "method": "non"})
    while service.process_once():
        pass
    assert failed.status == "failed" and failed.dead_lettered
    (record,) = service.stats()["dead_letter"]
    assert record["function"] == name
    assert failed.describe()["function"] == name


def test_dispatcher_thread_serves_in_background():
    service = AllocationService(ServiceConfig())
    service.start()
    try:
        job = service.submit(make_request())
        assert job.wait(timeout=30)
        assert job.status == "done"
    finally:
        service.stop()


def test_key_matches_artifact_key(service):
    request = make_request()
    job = service.submit(request)
    service.process_once()
    assert job.key == cache_key(
        request["ir"], request["file"], request["method"]
    )
    assert json.loads(job.artifact)["key"] == job.key


def test_describe_is_safe_while_the_dispatcher_adds_stages():
    # A submitter describes its job while the dispatcher thread may be
    # adding a stage time to it; tiny switch intervals make that likely.
    job = Job(job_id="j1", key="k", ir="func @f {}", file_spec={},
              requested_method="bpc", flags={})
    stop = threading.Event()

    def add_stages():
        while not stop.is_set():
            for name in ("queue_wait", "cache", "alloc", "verify"):
                job.stages[name] = 0.1
            job.stages.clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writer = threading.Thread(target=add_stages)
    writer.start()
    try:
        for _ in range(20_000):
            job.describe()
    finally:
        stop.set()
        writer.join()
        sys.setswitchinterval(interval)
