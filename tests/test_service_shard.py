"""Shard layer: hash ring, routing invariants, eviction/respawn, chaos."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.ir import print_function
from repro.resilience import FAULTS, FaultPlan
from repro.service import (
    HashRing,
    LocalShard,
    NoShardAvailableError,
    RequestError,
    ServiceConfig,
    ServiceError,
    ShardError,
    ShardRouter,
    artifact_bytes,
    build_artifact,
    build_module_artifact,
    normalize_request,
)
from repro.service import queue as queue_module
from repro.service import shard as shard_module
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer, shutdown_server
from repro.service.shard import shard_cache_dir

from .conftest import build_mac_kernel
from .test_golden_digests import FILES, workload_functions


@pytest.fixture(autouse=True)
def disarm():
    """Never leak an armed fault plan into other tests."""
    yield
    FAULTS.disarm()


def make_request(method="bpc", trip_count=16, **extra):
    request = {
        "ir": print_function(build_mac_kernel(trip_count=trip_count)),
        "file": {"registers": 32, "banks": 2},
        "method": method,
    }
    request.update(extra)
    return request


def make_router(n=3, **kwargs):
    shards = [LocalShard(f"s{i}", ServiceConfig()) for i in range(n)]
    return ShardRouter(shards, **kwargs)


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------
def test_ring_lookup_deterministic_and_total():
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    keys = [f"key-{i}" for i in range(200)]
    first = {k: ring.lookup(k) for k in keys}
    assert set(first.values()) == {"s0", "s1", "s2"}  # no starved member
    assert {k: ring.lookup(k) for k in keys} == first


def test_ring_remove_remaps_only_the_dead_members_keys():
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    keys = [f"key-{i}" for i in range(300)]
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("s1")
    after = {k: ring.lookup(k) for k in keys}
    for key in keys:
        if before[key] == "s1":
            assert after[key] in ("s0", "s2")
        else:  # survivors keep their slices untouched
            assert after[key] == before[key]


def test_ring_re_add_restores_exact_ownership():
    # vnode positions derive from the member *name*, so a respawned
    # worker reclaims precisely its old key slice (cache stays warm).
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    keys = [f"key-{i}" for i in range(300)]
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("s1")
    ring.add("s1")
    assert {k: ring.lookup(k) for k in keys} == before


def test_ring_preference_chain_distinct_and_headed_by_owner():
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    for i in range(50):
        chain = ring.preference(f"key-{i}")
        assert len(chain) == len(set(chain)) == 3
        assert chain[0] == ring.lookup(f"key-{i}")


def test_ring_empty_and_membership():
    ring = HashRing()
    assert ring.lookup("k") is None
    assert ring.preference("k") == []
    ring.add("s0")
    ring.add("s0")  # idempotent: no duplicate vnodes
    assert ring.members == ["s0"]
    assert len(ring._positions) == ring.replicas
    ring.remove("s0")
    ring.remove("s0")  # idempotent
    assert len(ring) == 0
    with pytest.raises(ValueError):
        HashRing(replicas=0)


def test_shard_cache_dir():
    assert shard_cache_dir(None, "s0") is None
    path = shard_cache_dir("/tmp/base", "s1")
    assert path.endswith("shard-s1")


# ----------------------------------------------------------------------
# Routing invariants
# ----------------------------------------------------------------------
def test_same_key_routes_to_same_live_shard():
    router = make_router()
    try:
        first = router.submit(make_request())
        assert router.wait(first["job_id"])["status"] == "done"
        second = router.submit(make_request())
        assert first["shard"] == second["shard"]
        done = router.wait(second["job_id"])
        assert done["status"] == "done"
        assert done["cache"] == "hit"  # same key → same shard → warm cache
    finally:
        router.close()


def test_job_ids_are_shard_qualified_and_round_trip():
    router = make_router()
    try:
        status = router.submit(make_request())
        assert status["job_id"].endswith(f"@{status['shard']}")
        done = router.wait(status["job_id"])
        assert done["status"] == "done"
        blob = router.result(status["job_id"])
        assert blob.startswith(b"{")
        with pytest.raises(RequestError):
            router.poll("j000001")  # unqualified
        with pytest.raises(ShardError):
            router.poll("j000001@nope")  # unknown shard
        with pytest.raises(ServiceError):
            router.poll(f"j999999@{status['shard']}")  # unknown job
    finally:
        router.close()


def test_concurrent_duplicate_submits_execute_exactly_once():
    router = make_router()
    request = make_request()
    statuses: list[dict] = []
    lock = threading.Lock()

    def worker():
        status = router.submit(dict(request))
        done = router.wait(status["job_id"])
        with lock:
            statuses.append(done)

    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(statuses) == 8
        assert {s["status"] for s in statuses} == {"done"}
        assert len({s["shard"] for s in statuses}) == 1  # one owner
        stats = router.stats()
        assert stats["counters"]["executed"] == 1  # fleet-wide
        blobs = {router.result(s["job_id"]) for s in statuses}
        assert len(blobs) == 1  # bit-identical
    finally:
        router.close()


def test_requests_spread_across_shards():
    router = make_router()
    try:
        for trip in range(4, 24):
            router.submit(make_request(trip_count=trip))
        routed = router.stats()["router"]["routed"]
        assert sum(routed.values()) == 20
        assert sum(1 for count in routed.values() if count > 0) >= 2
    finally:
        router.close()


def test_bad_request_propagates_without_eviction():
    router = make_router()
    try:
        with pytest.raises(RequestError):
            router.submit({"ir": ""})
        assert len(router.ring) == 3
    finally:
        router.close()


# ----------------------------------------------------------------------
# The router's key memo: one normalize per distinct body
# ----------------------------------------------------------------------
def count_normalizes(monkeypatch, module) -> list:
    """Record every body *module*'s ``normalize_request`` sees."""
    seen = []

    def counting(request):
        seen.append(request)
        return normalize_request(request)

    monkeypatch.setattr(module, "normalize_request", counting)
    return seen


def memo_counts(router) -> tuple[int, int]:
    counters = router.stats()["router"]["counters"]
    return counters["memo_hits"], counters["memo_misses"]


def ragged(ir: str) -> str:
    """*ir* with extra indentation, trailing blanks and comments, one of
    which names another function (it must not make *ir* a module)."""
    lines = ("  " + line + "   ; a comment" for line in ir.splitlines())
    return "; helper for func @other\n\n" + "\n".join(lines) + "\n\n"


def test_memo_keys_and_bytes_match_direct_builds_on_the_golden_matrix():
    router = make_router(2)
    specs = list(FILES.values())
    try:
        for index, (label, fn) in enumerate(workload_functions()):
            ir = print_function(fn)
            spec = specs[index % len(specs)]
            direct = artifact_bytes(build_artifact(ir, spec, "bpc"))
            for text in (ir, ragged(ir), ir.replace("\n", "\n\n")):
                request = {"ir": text, "file": dict(spec), "method": "bpc"}
                key = normalize_request(request)["key"]
                status = router.submit(request)
                assert router.content_address(request) == key, label
                assert status["key"] == key, label
                assert status["shard"] == router.ring.lookup(key), label
                assert router.wait(status["job_id"])["status"] == "done"
                assert router.result(status["job_id"]) == direct, label
        assert router.stats()["counters"]["executed"] == index + 1
    finally:
        router.close()


def test_repeated_body_is_normalized_once_at_the_router(monkeypatch):
    router_seen = count_normalizes(monkeypatch, shard_module)
    worker_seen = count_normalizes(monkeypatch, queue_module)
    router = make_router(2)
    request = make_request()
    reordered = dict(reversed(list(request.items())))
    try:
        blobs = set()
        for body in (request, dict(request), reordered):
            status = router.submit(body)
            assert router.wait(status["job_id"])["status"] == "done"
            blobs.add(router.result(status["job_id"]))
        assert len(blobs) == 1
        assert len(router_seen) == 1
        assert len(worker_seen) == 3  # the shard still keys every submit
        assert memo_counts(router) == (2, 1)
    finally:
        router.close()


def test_memo_keeps_one_entry_per_distinct_body():
    router = make_router(2)
    base = make_request()
    variants = [
        base,
        make_request(method="bcr"),
        {**base, "file": {"registers": 16, "banks": 2}},
        make_request(flags={"bundle_aware": True}),
        make_request(machine={"model": "ooo", "issue_width": 4}),
        make_request(deadline_ms=5000),
    ]
    try:
        keys = [router.content_address(body) for body in variants]
        assert keys == [normalize_request(body)["key"] for body in variants]
        assert len(set(keys[:5])) == 5
        assert keys[5] == keys[0]  # a deadline never enters the key
        assert memo_counts(router) == (0, 6)
        assert [router.content_address(body) for body in variants] == keys
        assert memo_counts(router) == (6, 6)
    finally:
        router.close()


def test_bad_request_fails_every_time_and_is_never_remembered(monkeypatch):
    router_seen = count_normalizes(monkeypatch, shard_module)
    router = make_router(2)
    bad = [
        {"ir": ""},
        {"ir": "not ir at all"},
        make_request(method="nope"),
        make_request(bogus=1),
        ["not", "an", "object"],
    ]
    try:
        for _ in range(2):
            for body in bad:
                with pytest.raises(RequestError):
                    router.submit(body)
        assert len(router_seen) == 2 * len(bad)
        assert memo_counts(router) == (0, 2 * len(bad))
        assert router.stats()["router"]["counters"]["requests"] == 0
    finally:
        router.close()


def test_memo_evicts_the_least_recently_used_body(monkeypatch):
    monkeypatch.setattr(shard_module, "ROUTE_MEMO_ENTRIES", 2)
    router_seen = count_normalizes(monkeypatch, shard_module)
    router = make_router(2)
    a, b, c = (make_request(trip_count=trip) for trip in (8, 12, 20))
    try:
        for body in (a, b, a, c):  # c evicts b, the least recently used
            router.content_address(body)
        assert router_seen == [a, b, c]
        router.content_address(a)
        router.content_address(b)
        assert router_seen == [a, b, c, b]
        assert memo_counts(router) == (2, 4)
    finally:
        router.close()


def test_memo_stays_consistent_under_concurrent_lookups(monkeypatch):
    monkeypatch.setattr(shard_module, "ROUTE_MEMO_ENTRIES", 4)
    router = make_router(2)
    bodies = [make_request(trip_count=trip) for trip in range(4, 12)]
    expected = [normalize_request(body)["key"] for body in bodies]
    wrong: list = []
    calls_per_thread = 40

    def worker(offset: int) -> None:
        for call in range(calls_per_thread):
            index = (offset + call) % len(bodies)
            if router.content_address(bodies[index]) != expected[index]:
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        router.close()
    assert not wrong
    assert sum(memo_counts(router)) == 8 * calls_per_thread
    assert len(router._memo) <= 4


def test_module_and_machine_requests_keep_their_key_and_shard():
    router = make_router(2)
    module_ir = "\n".join(
        print_function(build_mac_kernel(trip_count=trip)).replace(
            "func @mac", f"func @mac{trip}"
        )
        for trip in (8, 16)
    )
    machine = {"model": "ooo", "issue_width": 4}
    spec = {"registers": 32, "banks": 2}
    cases = [
        (
            {"ir": module_ir, "file": spec, "method": "bpc"},
            build_module_artifact(module_ir, spec, "bpc"),
        ),
        (
            make_request(machine=machine),
            build_artifact(make_request()["ir"], spec, "bpc", machine=machine),
        ),
    ]
    try:
        for request, artifact in cases:
            normalized = normalize_request(request)
            assert normalized["key"] == artifact["key"]
            status = router.submit(request)
            assert status["key"] == normalized["key"]
            assert status["shard"] == router.ring.lookup(normalized["key"])
            assert router.wait(status["job_id"])["status"] == "done"
            assert router.result(status["job_id"]) == artifact_bytes(artifact)
        assert normalize_request(cases[0][0])["kind"] == "module"
    finally:
        router.close()


# ----------------------------------------------------------------------
# Eviction / respawn
# ----------------------------------------------------------------------
def test_dead_shard_keys_hand_off_then_return_after_respawn():
    router = make_router(auto_respawn=False, breaker_threshold=1)
    request = make_request()
    key = normalize_request(request)["key"]
    try:
        owner = router.ring.lookup(key)
        router.shards[owner].kill()
        status = router.submit(request)  # walks the preference chain
        assert status["shard"] != owner
        assert router.wait(status["job_id"])["status"] == "done"
        stats = router.stats()
        assert stats["router"]["counters"]["handoffs"] >= 1
        assert owner in stats["router"]["evicted"]
        # Respawn: the name-derived vnodes hand the slice straight back.
        router.respawn(owner)
        assert router.ring.lookup(key) == owner
        assert router.submit(request)["shard"] == owner
    finally:
        router.close()


def test_all_shards_dead_raises_no_shard_available():
    router = make_router(auto_respawn=False, breaker_threshold=1)
    try:
        for shard in list(router.shards.values()):
            shard.kill()
        with pytest.raises(NoShardAvailableError):
            router.submit(make_request())
        assert router.stats()["router"]["counters"]["no_shard"] == 1
    finally:
        router.close()


def test_health_check_evicts_then_respawns():
    router = make_router(breaker_threshold=1, breaker_cooldown_s=0.05)
    try:
        victim = sorted(router.shards)[0]
        router.shards[victim].kill()
        report = router.check_health()
        assert victim in report["evicted"]
        assert victim not in router.ring.members
        # Once the breaker cooldown lapses the next sweep trial-restarts.
        time.sleep(0.06)
        report = router.check_health()
        assert victim in report["respawned"]
        assert victim in router.ring.members
        status = router.submit(make_request())
        assert router.wait(status["job_id"])["status"] == "done"
    finally:
        router.close()


# ----------------------------------------------------------------------
# Chaos: fault-driven death and handoff
# ----------------------------------------------------------------------
def test_chaos_worker_death_is_verifier_clean_and_bit_identical():
    shards = [
        LocalShard(f"s{i}", ServiceConfig(verify="strict")) for i in range(3)
    ]
    router = ShardRouter(shards, breaker_threshold=1, breaker_cooldown_s=0.05)
    request = make_request()
    direct = artifact_bytes(
        build_artifact(
            request["ir"], {"registers": 32, "banks": 2}, "bpc"
        )
    )
    try:
        before = router.submit(request)
        assert router.wait(before["job_id"])["status"] == "done"
        FAULTS.arm(
            FaultPlan.from_dict(
                {"faults": [{"site": "shard.worker", "mode": "death",
                             "times": 1}]}
            )
        )
        report = router.check_health()  # fault kills one worker
        FAULTS.disarm()
        assert len(report["evicted"]) == 1
        time.sleep(0.06)
        router.check_health()  # cooldown elapsed: respawn
        status = router.submit(request)
        done = router.wait(status["job_id"])
        assert done["status"] == "done"
        assert router.result(status["job_id"]) == direct
        assert router.stats()["counters"]["verify_failed"] == 0
    finally:
        FAULTS.disarm()
        router.close()


def test_route_handoff_fault_skips_the_owner():
    router = make_router()
    request = make_request()
    key = normalize_request(request)["key"]
    try:
        owner = router.ring.lookup(key)
        FAULTS.arm(
            FaultPlan.from_dict(
                {"faults": [{"site": "shard.route", "mode": "handoff",
                             "times": 1}]}
            )
        )
        status = router.submit(request)
        assert status["shard"] != owner
        assert router.wait(status["job_id"])["status"] == "done"
        assert router.stats()["router"]["counters"]["handoffs"] == 1
    finally:
        FAULTS.disarm()
        router.close()


# ----------------------------------------------------------------------
# HTTP front end (in-process shards — no child processes in tier 1)
# ----------------------------------------------------------------------
@pytest.fixture
def frontend():
    router = make_router()
    server = ServiceServer(("127.0.0.1", 0), router)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", retries=0)
    try:
        yield client, router
    finally:
        shutdown_server(server)
        thread.join(timeout=5)


def test_frontend_allocate_stats_and_errors(frontend):
    client, router = frontend
    request = make_request()
    status, artifact = client.allocate(request["ir"], registers=32, banks=2)
    assert artifact["method"] == "bpc"
    assert "@" in status["job_id"]
    status = client.submit(request["ir"], registers=32, banks=2)
    done = client.wait(status["job_id"])
    assert done["status"] == "done"
    assert client.result(status["job_id"]).startswith(b"{")
    stats = client.stats()
    assert stats["router"]["ring"]["members"] == ["s0", "s1", "s2"]
    assert stats["counters"]["executed"] == 1
    assert client.health()["shards"] == 3
    with pytest.raises(ServiceError) as excinfo:
        client.poll("j000001")  # unqualified id → 400
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.poll("j000001@nope")  # unknown shard → 503
    assert excinfo.value.status == 503
