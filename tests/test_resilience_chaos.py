"""Chaos suite: under any seeded fault plan, **fail-stop or correct**.

Every test arms a deterministic fault schedule, drives the service, and
asserts the invariant: a successful response is verifier-clean and
bit-identical to the fault-free run; a failure is explicit (failed job,
dead-letter record, 5xx) — never silent corruption.
"""

from __future__ import annotations

import threading

import pytest

from repro.ir import print_function
from repro.resilience import FAULTS, FaultPlan
from repro.resilience.faults import FaultPoint
from repro.service import (
    AllocationService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadError,
    artifact_bytes,
    build_artifact,
    build_module_artifact,
    cache_key,
    make_server,
    shutdown_server,
)
from repro.service import client as client_module
from repro.service import queue as queue_module
from repro.service.client import CircuitOpenError, ServiceClient
from repro.service.queue import Job

from .conftest import build_mac_kernel

FILE = {"registers": 32, "banks": 2}
IR = print_function(build_mac_kernel())
REQUEST = {"ir": IR, "file": FILE, "method": "bpc"}

#: The fault-free run every chaos outcome must be bit-identical to.
BASELINE = artifact_bytes(build_artifact(IR, FILE, "bpc"))


@pytest.fixture(autouse=True)
def disarm():
    yield
    FAULTS.disarm()


def arm(*points: FaultPoint, seed: int = 0) -> None:
    FAULTS.arm(FaultPlan(seed=seed, points=list(points)))


def run_to_done(service: AllocationService, request: dict, rounds: int = 8):
    job = service.submit(request)
    for _ in range(rounds):
        if job.status in ("done", "failed"):
            break
        service.process_once()
    return job


# ----------------------------------------------------------------------
# Disk corruption: quarantine and recompute
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["bitflip", "truncate", "garbage"])
def test_corrupted_disk_entry_heals_bit_identical(tmp_path, mode):
    cache_dir = str(tmp_path / "cache")
    warm = AllocationService(ServiceConfig(cache_dir=cache_dir))
    assert run_to_done(warm, REQUEST).artifact == BASELINE

    arm(FaultPoint(site="cache.disk.read", mode=mode, times=1))
    # A fresh service has a cold memory layer, so the probe hits disk —
    # where the fault corrupts the bytes in flight.
    service = AllocationService(ServiceConfig(cache_dir=cache_dir))
    job = run_to_done(service, REQUEST)
    assert job.status == "done"
    assert job.artifact == BASELINE
    assert service.cache.stats()["quarantined"] >= 1
    quarantined = list((tmp_path / "cache").rglob("*.quarantined"))
    assert quarantined, "corrupt entry should be kept for post-mortem"


def test_partial_disk_write_never_serves_malformed_bytes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    arm(FaultPoint(site="cache.disk.write", mode="partial", times=1))
    torn = AllocationService(ServiceConfig(cache_dir=cache_dir))
    job = run_to_done(torn, REQUEST)
    # The submitter still gets the correct artifact (memory layer).
    assert job.artifact == BASELINE
    FAULTS.disarm()

    # A restart reads the torn file: the checksum rejects it and the
    # service recomputes — the reader never returns malformed bytes.
    service = AllocationService(ServiceConfig(cache_dir=cache_dir))
    job = run_to_done(service, REQUEST)
    assert job.status == "done"
    assert job.artifact == BASELINE
    assert service.cache.stats()["quarantined"] >= 1


def test_disk_write_error_degrades_to_memory_only(tmp_path):
    arm(FaultPoint(site="cache.disk.write", mode="error", times=1))
    service = AllocationService(
        ServiceConfig(cache_dir=str(tmp_path / "cache"))
    )
    job = run_to_done(service, REQUEST)
    assert job.status == "done"
    assert job.artifact == BASELINE
    assert service.cache.stats()["disk_write_errors"] == 1
    # The entry still serves from memory.
    assert service.submit(REQUEST).cache == "hit"


def test_poisoned_cache_entry_caught_by_verifier(tmp_path):
    # A checksum-valid entry holding the *wrong* artifact (cross-key
    # poisoning) passes the frame check; only the independent verifier
    # can catch it on the disk-load path.
    cache_dir = str(tmp_path / "cache")
    key = cache_key(IR, FILE, "bpc", canonical=False)
    wrong = artifact_bytes(build_artifact(IR, FILE, "non"))
    poisoner = AllocationService(ServiceConfig(cache_dir=cache_dir))
    poisoner.cache.put(key, wrong)

    service = AllocationService(
        ServiceConfig(cache_dir=cache_dir, verify="cached-only")
    )
    job = run_to_done(service, REQUEST)
    assert job.status == "done"
    assert job.artifact == BASELINE
    assert service.counters["verify_failed"] == 1
    assert service.cache.stats()["quarantined"] == 1


# ----------------------------------------------------------------------
# Queue: worker faults, retries, dead-letter, duplicates
# ----------------------------------------------------------------------
def test_transient_execute_fault_retries_to_success():
    arm(FaultPoint(site="queue.execute", mode="error", times=1))
    service = AllocationService(ServiceConfig())
    job = run_to_done(service, REQUEST)
    assert job.status == "done"
    assert job.artifact == BASELINE
    assert job.attempts == 2
    assert service.counters["retried"] == 1
    assert service.dead_letter == []


def test_module_job_reaches_the_execute_fault_point():
    module_ir = IR + "\n" + IR.replace("@mac", "@mac2")
    arm(FaultPoint(site="queue.execute", mode="error", times=1))
    service = AllocationService(ServiceConfig())
    job = run_to_done(service, dict(REQUEST, ir=module_ir))
    assert job.kind == "module"
    assert job.status == "done", job.error
    assert job.attempts == 2
    assert service.counters["retried"] == 1
    FAULTS.disarm()
    assert job.artifact == artifact_bytes(
        build_module_artifact(module_ir, FILE, "bpc")
    )


def test_persistent_execute_fault_dead_letters():
    arm(FaultPoint(site="queue.execute", mode="error"))  # unbounded
    service = AllocationService(ServiceConfig())
    job = run_to_done(service, REQUEST)
    assert job.status == "failed"
    assert job.attempts == 1 + queue_module.JOB_RETRIES == 3
    assert "injected fault" in job.error
    stats = service.stats()
    assert len(stats["dead_letter"]) == 1
    assert stats["dead_letter"][0]["job_id"] == job.job_id
    assert stats["counters"]["dead_lettered"] == 1

    # The service keeps serving after a dead-letter.
    FAULTS.disarm()
    ok = run_to_done(service, REQUEST)
    assert ok.status == "done"
    assert ok.artifact == BASELINE


def test_a_retried_job_requeues_without_sleeping(monkeypatch):
    # One job fails twice; the job queued behind it must not wait out a
    # backoff on the dispatcher thread.
    slept: list = []
    monkeypatch.setattr(
        "repro.service.queue.time.sleep", lambda s: slept.append(s)
    )
    arm(FaultPoint(site="queue.execute", mode="error", times=2, match="bpc"))
    service = AllocationService(ServiceConfig())
    failing = service.submit(REQUEST)
    behind = service.submit(dict(REQUEST, method="non"))
    while service.process_once():
        pass
    assert (failing.status, failing.attempts) == ("done", 3)
    assert failing.artifact == BASELINE
    assert (behind.status, behind.attempts) == ("done", 1)
    assert behind.finished_mono < failing.finished_mono
    assert slept == []


def test_worker_stall_still_serves_correct_bytes():
    arm(FaultPoint(site="queue.execute", mode="stall",
                   detail={"stall_s": 0.01}, times=1))
    service = AllocationService(ServiceConfig())
    job = run_to_done(service, REQUEST)
    assert job.status == "done"
    assert job.artifact == BASELINE


def test_duplicate_dispatch_is_absorbed():
    arm(FaultPoint(site="queue.dispatch", mode="duplicate", times=1))
    service = AllocationService(ServiceConfig())
    job = run_to_done(service, REQUEST)
    assert job.status == "done"
    assert job.artifact == BASELINE
    assert service.counters["duplicate_deliveries"] >= 1
    assert service.counters["executed"] == 1


def test_fault_accounting_surfaces_in_stats():
    arm(FaultPoint(site="queue.execute", mode="error", times=1))
    service = AllocationService(ServiceConfig())
    run_to_done(service, REQUEST)
    stats = service.stats()
    assert stats["faults"]["injected_total"] == 1
    assert stats["faults"]["rules"][0]["site"] == "queue.execute"


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
def test_full_queue_sheds_with_overload_error(monkeypatch):
    monkeypatch.setattr(queue_module, "MAX_QUEUE_DEPTH", 1)
    service = AllocationService(ServiceConfig())
    first = service.submit(REQUEST)
    assert first.status == "queued"
    other = dict(REQUEST, method="non")
    with pytest.raises(ServiceOverloadError) as err:
        service.submit(other)
    assert err.value.retry_after_s > 0
    assert service.counters["shed"] == 1
    # Draining the queue restores service.
    service.process_once()
    ok = run_to_done(service, other)
    assert ok.status == "done"


# ----------------------------------------------------------------------
# HTTP layer under faults
# ----------------------------------------------------------------------
@pytest.fixture
def http_server(tmp_path, monkeypatch):
    # Client retries back off from 10 ms, so retried faults cost little.
    monkeypatch.setattr(client_module, "BACKOFF_S", 0.01)
    server = make_server(
        "127.0.0.1", 0,
        ServiceConfig(cache_dir=str(tmp_path / "cache"), verify="strict"),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    shutdown_server(server)
    thread.join(timeout=5)


def _client(server, **kwargs) -> ServiceClient:
    host, port = server.server_address[:2]
    return ServiceClient(f"http://{host}:{port}", **kwargs)


def test_injected_server_503_is_retried_transparently(http_server):
    arm(FaultPoint(site="server.request", mode="error",
                   detail={"status": 503}, times=1))
    client = _client(http_server)
    status, artifact = client.allocate(IR, registers=32, banks=2, method="bpc")
    assert status["status"] == "done"
    assert artifact_bytes(artifact) == BASELINE


def test_connection_reset_is_retried_transparently(http_server):
    arm(FaultPoint(site="server.request", mode="reset", times=1))
    client = _client(http_server)
    status, artifact = client.allocate(IR, registers=32, banks=2, method="bpc")
    assert status["status"] == "done"
    assert artifact_bytes(artifact) == BASELINE


def test_injected_client_timeout_is_retried(http_server):
    arm(FaultPoint(site="client.request", mode="timeout", times=1))
    client = _client(http_server)
    assert client.health() == {"ok": True}


def test_circuit_breaker_fails_fast_after_consecutive_failures(
    http_server, monkeypatch
):
    monkeypatch.setattr(client_module, "BREAKER_THRESHOLD", 2)
    monkeypatch.setattr(client_module, "BREAKER_COOLDOWN_S", 60.0)
    arm(FaultPoint(site="client.request", mode="connreset"))  # every call
    client = _client(http_server, retries=1)
    with pytest.raises(ServiceError):
        client.health()
    assert client.breaker.state == "open"
    # While open, calls fail fast without touching the network.
    with pytest.raises(CircuitOpenError):
        client.health()


def test_concurrency_shed_returns_429(http_server):
    client = _client(http_server, retries=0)
    slots = http_server.request_slots
    held = 0
    while slots.acquire(blocking=False):
        held += 1
    try:
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 429
    finally:
        for _ in range(held):
            slots.release()
    assert client.health() == {"ok": True}


def test_http_responses_under_mixed_fault_plan_are_bit_identical(http_server):
    # The headline invariant over a mixed schedule: disk corruption,
    # one worker fault, one shed response, one client timeout — every
    # 200 that comes back is bit-identical to the fault-free run.
    arm(
        FaultPoint(site="queue.execute", mode="error", times=1),
        FaultPoint(site="server.request", mode="error",
                   detail={"status": 503}, times=1, match="/v1/"),
        FaultPoint(site="client.request", mode="timeout", times=1,
                   after=1),
        FaultPoint(site="cache.disk.read", mode="bitflip", times=1),
    )
    client = _client(http_server)
    for _ in range(3):
        status, artifact = client.allocate(
            IR, registers=32, banks=2, method="bpc"
        )
        assert status["status"] == "done"
        assert artifact_bytes(artifact) == BASELINE
    stats = client.stats()
    assert stats["counters"]["failed"] == 0
    assert stats["faults"]["injected_total"] >= 2


# ----------------------------------------------------------------------
# Bounded retention (the unbounded-growth fix)
# ----------------------------------------------------------------------
def test_finished_jobs_are_evicted_beyond_retention(monkeypatch):
    monkeypatch.setattr(queue_module, "JOB_RETENTION", 3)
    service = AllocationService(ServiceConfig(verify="off"))
    jobs = []
    for trips in range(2, 10):
        kernel = print_function(build_mac_kernel(trip_count=2 ** trips))
        jobs.append(run_to_done(service, {"ir": kernel, "file": FILE,
                                          "method": "non"}))
    assert all(j.status == "done" for j in jobs)
    retained = [j for j in jobs if service.get(j.job_id) is not None]
    assert len(retained) <= 3
    assert service.counters["jobs_evicted"] >= 5
    # The most recent job is always still pollable.
    assert service.get(jobs[-1].job_id) is not None
    # The coalescing map never retains finished jobs.
    assert service._inflight == {}


def test_cache_hit_flood_stays_bounded(monkeypatch):
    # Hits resolve without ever touching the queue; they must still
    # count toward retention or a hot key grows the jobs table forever.
    monkeypatch.setattr(queue_module, "JOB_RETENTION", 4)
    service = AllocationService(ServiceConfig(verify="off"))
    run_to_done(service, REQUEST)
    for _ in range(20):
        job = service.submit(REQUEST)
        assert job.cache == "hit"
    with service._lock:
        retained = len(service._jobs)
    assert retained <= 4 + 1  # retention + the in-flight margin
    assert service.counters["jobs_evicted"] >= 16


@pytest.mark.parametrize("deadline_s", [None, 60.0])
def test_eviction_work_per_submit_does_not_grow_with_retention(
    monkeypatch, deadline_s
):
    # Finished jobs evict from the front of a finish-ordered map, so a
    # submit against a full table inspects the same number of jobs
    # whether the service retains 8 of them or 512 — and whether or not
    # the jobs carry a deadline, which eviction never consults.
    request = dict(REQUEST)
    if deadline_s is not None:
        request["deadline_ms"] = deadline_s * 1000.0
    inspected = [0]
    finished = Job.finished

    def counted(job):
        inspected[0] += 1
        return finished.fget(job)

    monkeypatch.setattr(Job, "finished", property(counted))

    def per_submit(retention):
        monkeypatch.setattr(queue_module, "JOB_RETENTION", retention)
        service = AllocationService(ServiceConfig(verify="off"))
        assert run_to_done(service, request).status == "done"
        for _ in range(retention + 2):  # fill the table with hits
            assert service.submit(request).cache == "hit"
        inspected[0] = 0
        service.submit(request)
        return inspected[0]

    assert per_submit(512) <= per_submit(8)
