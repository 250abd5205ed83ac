"""Crash durability: write-ahead journal, recovery replay, drain, restart.

The invariant under test, end to end: **every accepted job reaches a
terminal state across a crash**, successes are verifier-clean and
bit-identical to the fault-free run, and a rolling restart under load
loses zero goodput (see ``docs/RESILIENCE.md``, "Durability &
lifecycle").
"""

from __future__ import annotations

import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.ir import print_function
from repro.resilience import FAULTS, FaultPlan
from repro.resilience.faults import FaultPoint
from repro.service import (
    AllocationService,
    JobJournal,
    ServiceConfig,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadError,
    artifact_bytes,
    build_artifact,
    make_server,
    shutdown_server,
)
from repro.service.client import ServiceClient
from repro.service.durability import frame_record, parse_frame
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.shard import LocalShard, ShardRouter, shard_cache_dir

from .conftest import build_mac_kernel

FILE = {"registers": 32, "banks": 2}
IR = print_function(build_mac_kernel())
REQUEST = {"ir": IR, "file": FILE, "method": "bpc"}

#: The fault-free artifact every recovered success must be identical to.
BASELINE = artifact_bytes(build_artifact(IR, FILE, "bpc"))


@pytest.fixture(autouse=True)
def disarm():
    yield
    FAULTS.disarm()


def arm(*points: FaultPoint, seed: int = 0) -> None:
    FAULTS.arm(FaultPlan(seed=seed, points=list(points)))


def make_service(tmp_path, **overrides) -> AllocationService:
    config = ServiceConfig(
        journal_dir=str(tmp_path / "journal"),
        cache_dir=str(tmp_path / "cache"),
        **overrides,
    )
    return AllocationService(config)


def fake_job(job_id="j000001", **overrides):
    fields = {
        "job_id": job_id,
        "key": "k" * 64,
        "kind": "function",
        "ir": IR,
        "file_spec": dict(FILE),
        "requested_method": "bpc",
        "flags": {},
        "machine": None,
        "deadline_s": None,
    }
    fields.update(overrides)
    return SimpleNamespace(**fields)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    record = {"type": "accepted", "job_id": "j000001", "ir": IR}
    frame = frame_record(record)
    assert frame.startswith(b"repro-journal/1 ")
    assert frame.endswith(b"\n")
    assert parse_frame(frame) == record


def test_frame_rejects_corruption():
    frame = frame_record({"type": "terminal", "job_id": "j000001"})
    assert parse_frame(frame[:-1]) is None  # missing commit newline
    assert parse_frame(frame[: len(frame) // 2]) is None  # torn prefix
    corrupt = frame.replace(b"terminal", b"terminaX")
    assert parse_frame(corrupt) is None  # checksum mismatch
    assert parse_frame(b"not a frame at all\n") is None


# ----------------------------------------------------------------------
# Journal unit behaviour
# ----------------------------------------------------------------------
def test_journal_accept_terminal_replay(tmp_path):
    journal = JobJournal(str(tmp_path))
    journal.record_accepted(fake_job("j000001"))
    journal.record_accepted(fake_job("j000002"))
    journal.record_terminal("j000001", "done", key="k" * 64,
                            served_method="bpc")
    journal.close()

    replay = JobJournal(str(tmp_path)).replay()
    assert [r["job_id"] for r in replay.pending] == ["j000002"]
    assert replay.pending[0]["ir"] == IR
    assert replay.pending[0]["file"] == FILE
    assert [r["job_id"] for r in replay.finished] == ["j000001"]
    assert (replay.truncated, replay.quarantined) == (0, 0)


def test_torn_final_frame_truncated_on_replay(tmp_path):
    journal = JobJournal(str(tmp_path))
    journal.record_accepted(fake_job("j000001"))
    journal.close()
    # Crash mid-append: a prefix of the next frame, no commit newline.
    torn = frame_record({"type": "accepted", "job_id": "j000002"})
    with open(journal.journal_path, "ab") as fh:
        fh.write(torn[: len(torn) // 2].rstrip(b"\n"))

    fresh = JobJournal(str(tmp_path))
    replay = fresh.replay()
    # The torn job never acked its submit, so dropping it is correct.
    assert [r["job_id"] for r in replay.pending] == ["j000001"]
    assert replay.truncated == 1
    assert replay.quarantined == 0
    # The file was healed: a second replay sees only clean frames.
    again = JobJournal(str(tmp_path)).replay()
    assert again.truncated == 0
    assert [r["job_id"] for r in again.pending] == ["j000001"]


def test_corrupt_midfile_frame_quarantined(tmp_path):
    journal = JobJournal(str(tmp_path))
    journal.record_accepted(fake_job("j000001"))
    journal.record_accepted(fake_job("j000002"))
    journal.record_accepted(fake_job("j000003"))
    journal.close()
    # Flip bytes inside the middle frame (bit rot, not a torn tail).
    raw = open(journal.journal_path, "rb").read()
    lines = raw.split(b"\n")
    lines[1] = lines[1].replace(b"j000002", b"jXXXXXX")
    with open(journal.journal_path, "wb") as fh:
        fh.write(b"\n".join(lines))

    fresh = JobJournal(str(tmp_path))
    replay = fresh.replay()
    assert [r["job_id"] for r in replay.pending] == ["j000001", "j000003"]
    assert replay.quarantined == 1
    assert replay.truncated == 0
    # Quarantined, not silently dropped: the bad frame is preserved.
    quarantined = open(fresh.quarantine_path, "rb").read()
    assert b"jXXXXXX" in quarantined
    # And the journal healed itself for the next replay.
    assert JobJournal(str(tmp_path)).replay().quarantined == 0


def test_compaction_equivalence(tmp_path):
    journal = JobJournal(str(tmp_path))
    for i in range(6):
        journal.record_accepted(fake_job(f"j{i:06d}"))
    dead = {"job_id": "j000004", "error": "boom", "key": "k" * 64}
    journal.record_terminal("j000001", "done", key="k" * 64)
    journal.record_terminal("j000004", "failed", error="boom",
                            dead_letter=dead)
    before = JobJournal(str(tmp_path)).replay()

    journal.compact()
    journal.close()
    # Compaction folded everything into the checkpoint; the journal
    # restarts empty but a replay yields the same live set.
    after = JobJournal(str(tmp_path)).replay()
    assert ([r["job_id"] for r in after.pending]
            == [r["job_id"] for r in before.pending])
    assert after.dead_letter == before.dead_letter == [dead]


def test_maybe_compact_waits_for_terminal_dominance(tmp_path):
    journal = JobJournal(str(tmp_path), compact_min_frames=4)
    for i in range(8):
        journal.record_accepted(fake_job(f"j{i:06d}"))
    # Plenty of frames, but nothing terminal yet: compaction would buy
    # nothing (every frame describes live work).
    assert not journal.maybe_compact()
    for i in range(8):
        journal.record_terminal(f"j{i:06d}", "done", key="k" * 64)
    # Terminal frames now dominate the (empty) live set.
    assert journal.counters["compactions"] >= 1
    assert journal.pending_count() == 0


def test_double_replay_idempotent(tmp_path):
    journal = JobJournal(str(tmp_path))
    journal.record_accepted(fake_job("j000001"))
    journal.record_terminal("j000001", "done", key="k" * 64)
    journal.record_accepted(fake_job("j000002"))
    journal.close()
    fresh = JobJournal(str(tmp_path))
    first = fresh.replay()
    second = fresh.replay()
    assert ([r["job_id"] for r in first.pending]
            == [r["job_id"] for r in second.pending] == ["j000002"])
    assert fresh.pending_count() == 1


# ----------------------------------------------------------------------
# Service crash / recovery
# ----------------------------------------------------------------------
def test_crash_recovery_runs_job_bit_identical(tmp_path):
    crashed = make_service(tmp_path)
    job = crashed.submit(dict(REQUEST))
    assert job.status == "queued"
    # SIGKILL: no stop(), no drain — the journal alone must carry it.

    recovered = make_service(tmp_path)
    report = recovered.recover()
    assert report["recovered"] == 1
    assert recovered.process_once() == 1
    replayed = recovered.get(job.job_id)
    assert replayed.status == "done"
    assert replayed.artifact == BASELINE
    recovered.stop()


def test_recovery_is_idempotent_and_skips_terminal(tmp_path):
    crashed = make_service(tmp_path)
    done = crashed.submit(dict(REQUEST))
    crashed.process_once()
    assert done.status == "done"
    pending = crashed.submit(
        {"ir": IR, "file": {"registers": 16, "banks": 2}, "method": "bpc"}
    )

    recovered = make_service(tmp_path)
    report = recovered.recover()
    # Only the non-terminal job replays; the finished one is restored
    # as a pollable tombstone, result bytes intact from the cache.
    assert report["recovered"] == 1
    assert report["restored"] == 1
    tombstone = recovered.get(done.job_id)
    assert tombstone.status == "done"
    assert tombstone.artifact == BASELINE
    assert recovered.process_once() == 1
    assert recovered.get(pending.job_id).status == "done"
    # recover() is one-shot per incarnation.
    assert recovered.recover()["recovered"] == 0
    recovered.stop()


def test_recovered_job_hits_cache_when_artifact_landed(tmp_path):
    """Exactly-once by idempotency: the artifact reached the cache
    before the crash, so the replayed job resolves as a hit — the work
    is never redone and the bytes cannot fork."""
    crashed = make_service(tmp_path)
    done = crashed.submit(dict(REQUEST))
    crashed.process_once()
    assert done.status == "done"
    # Simulate losing the terminal frame but not the cache insert: a
    # crash in the window between cache write and journal append.
    crashed.journal.close()
    with open(crashed.journal.journal_path, "rb") as fh:
        frames = [line for line in fh.read().splitlines(keepends=True)
                  if b'"terminal"' not in line]
    with open(crashed.journal.journal_path, "wb") as fh:
        fh.writelines(frames)

    recovered = make_service(tmp_path)
    report = recovered.recover()
    assert report["recovered"] == 1
    replayed = recovered.get(done.job_id)
    assert replayed.status == "done"  # resolved at submit, no dispatch
    assert replayed.cache == "hit"
    assert replayed.artifact == BASELINE
    recovered.stop()


def test_warm_hits_are_never_journaled(tmp_path):
    service = make_service(tmp_path)
    miss = service.submit(dict(REQUEST))
    service.process_once()
    assert miss.status == "done"
    appended = service.journal.counters["appended"]
    hit = service.submit(dict(REQUEST))
    assert hit.cache == "hit"
    # A hit is accepted-and-terminal in one step: no crash window, no
    # frame — which is also why the journal costs nothing when warm.
    assert service.journal.counters["appended"] == appended
    service.stop()


def test_dead_letter_survives_restart_and_answers_lookup(tmp_path):
    arm(FaultPoint(site="queue.execute", mode="error", times=8))
    crashed = make_service(tmp_path, job_retries=1, job_backoff_s=0.0)
    job = crashed.submit(dict(REQUEST))
    for _ in range(8):
        if job.finished:
            break
        crashed.process_once()
    assert job.status == "failed"
    assert crashed.dead_letter
    FAULTS.disarm()

    recovered = make_service(tmp_path)
    report = recovered.recover()
    assert report["dead_letter"] == 1
    view = recovered.lookup(job.job_id)
    assert view["status"] == "failed"
    assert view["dead_lettered"] is True
    assert view["error"]
    recovered.stop()


def test_journal_torn_write_fault_drops_unacked_job(tmp_path):
    arm(FaultPoint(site="queue.journal", mode="torn-write", times=1))
    crashed = make_service(tmp_path)
    # The torn write models a crash *mid-append*: only a prefix of the
    # frame reached disk and the process died before the submit's ack
    # made it anywhere — so the job legitimately never happened.
    crashed.submit(dict(REQUEST))
    FAULTS.disarm()

    recovered = make_service(tmp_path)
    report = recovered.recover()
    assert report["recovered"] == 0
    assert report["truncated"] == 1
    recovered.stop()


def test_journal_append_error_degrades_durability_not_service(tmp_path):
    arm(FaultPoint(site="queue.journal", mode="error", times=1))
    service = make_service(tmp_path)
    job = service.submit(dict(REQUEST))  # must not raise
    service.process_once()
    assert job.status == "done"
    assert job.artifact == BASELINE
    assert service.journal.counters["append_errors"] == 1
    service.stop()


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
def test_drain_rejects_new_work_and_resume_reopens(tmp_path):
    service = make_service(tmp_path)
    accepted = service.submit(dict(REQUEST))
    state = service.drain()
    assert state["draining"] is True
    with pytest.raises(ServiceDrainingError):
        service.submit(dict(REQUEST))
    assert isinstance(ServiceDrainingError(), ServiceOverloadError)
    # In-flight work still completes while draining.
    service.process_once()
    assert accepted.status == "done"
    assert service.lifecycle()["drained"] is True
    service.resume()
    assert service.submit(dict(REQUEST)).cache == "hit"
    service.stop()


def test_drain_over_http_marks_503_and_client_does_not_retry(tmp_path):
    server = make_server(
        "127.0.0.1", 0,
        ServiceConfig(cache_dir=str(tmp_path / "cache")),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", retries=3)
    try:
        state = client.drain()
        assert state["draining"] is True
        started = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.submit(IR, registers=32, banks=2, method="bpc")
        assert err.value.status == 503
        assert err.value.draining is True
        # A draining 503 is definitive: no retry/backoff burned on it.
        assert time.monotonic() - started < 1.0
        assert client.breaker.state == "closed"
    finally:
        shutdown_server(server)
        thread.join(timeout=5)


# ----------------------------------------------------------------------
# Fleet: drain handoff, kill9, rolling restart
# ----------------------------------------------------------------------
def fleet(tmp_path, n=3) -> ShardRouter:
    shards = [
        LocalShard(
            f"s{i}",
            ServiceConfig(
                cache_dir=shard_cache_dir(str(tmp_path / "cache"), f"s{i}"),
                journal_dir=shard_cache_dir(str(tmp_path / "wal"), f"s{i}"),
            ),
        )
        for i in range(n)
    ]
    return ShardRouter(shards)


def test_router_drain_takes_shard_off_ring_but_keeps_it_pollable(tmp_path):
    router = fleet(tmp_path)
    try:
        status = router.submit(dict(REQUEST))
        owner = status["job_id"].rsplit("@", 1)[1]
        state = router.drain(owner)
        assert state["draining"] is True
        assert owner not in router.ring.members
        # The drained shard's accepted work still resolves…
        final = router.wait(status["job_id"], timeout=10.0)
        assert final["status"] == "done"
        assert router.result(status["job_id"]) == BASELINE
        # …and new work (same key!) lands on a survivor.
        rerouted = router.submit(dict(REQUEST))
        assert rerouted["job_id"].rsplit("@", 1)[1] != owner
        assert sorted(router.stats()["router"]["draining"]) == [owner]
    finally:
        router.close()


def test_kill9_then_respawn_recovers_accepted_jobs(tmp_path):
    router = fleet(tmp_path)
    try:
        status = router.submit(dict(REQUEST))
        job_id = status["job_id"]
        owner = job_id.rsplit("@", 1)[1]
        shard = router.shards[owner]
        shard.service.drain_wait(timeout=10.0)  # let it finish cleanly
        shard.service.resume()

        arm(FaultPoint(site="shard.worker", mode="kill9", times=1,
                       match=owner))
        report = router.check_health()  # hard kill, no drain, no sync
        FAULTS.disarm()
        assert owner not in report["healthy"]
        for _ in range(200):
            router.check_health()  # breaker → evict → cooldown → respawn
            if owner in router.shards and router.shards[owner].healthy():
                break
            time.sleep(0.01)
        assert router.shards[owner].healthy()
        # The respawned worker recovered the journal: the pre-kill job
        # is still pollable and its bytes are the fault-free bytes.
        final = router.wait(job_id, timeout=10.0)
        assert final["status"] == "done"
        assert router.result(job_id) == BASELINE
    finally:
        router.close()


def test_rolling_restart_cycles_every_shard(tmp_path):
    router = fleet(tmp_path)
    try:
        submitted = [
            router.submit({"ir": IR, "file": {"registers": 16 + 8 * i,
                                              "banks": 2},
                           "method": "bpc"})
            for i in range(3)
        ]
        for status in submitted:
            router.wait(status["job_id"], timeout=10.0)
        report = router.rolling_restart()
        assert report["restarted"] == ["s0", "s1", "s2"]
        assert report["timed_out"] == []
        assert sorted(router.ring.members) == ["s0", "s1", "s2"]
        # Pre-restart jobs survived the restart (journal tombstones).
        for status in submitted:
            assert router.poll(status["job_id"])["status"] == "done"
        # And the fleet still takes new work.
        assert router.wait(router.submit(dict(REQUEST))["job_id"],
                           timeout=10.0)["status"] == "done"
    finally:
        router.close()


def test_rolling_restart_under_load_loses_zero_goodput(tmp_path):
    router = fleet(tmp_path)
    config = LoadgenConfig(
        seed=7, requests=40, pool=6,
        phases=((0.8, 50.0),), method="bpc",
        registers=16, banks=2, sample=2, timeout_s=30.0,
    )
    restart_report: dict = {}

    def _restart():
        time.sleep(0.4)  # halfway through the arrival schedule
        restart_report.update(router.rolling_restart())

    restarter = threading.Thread(target=_restart, daemon=True)
    try:
        restarter.start()
        report = run_loadgen(router, config)
        restarter.join(timeout=60.0)
    finally:
        router.close()
    assert restart_report["restarted"] == ["s0", "s1", "s2"]
    # The invariant this PR exists for: a rolling restart under load
    # loses zero goodput and forks zero bytes.
    assert report["failed"] == 0, report["failures"]
    assert report["goodput"] == report["requests"] == 40
    assert report["samples"]["mismatched"] == 0
    assert report["verify_failed"] == 0
