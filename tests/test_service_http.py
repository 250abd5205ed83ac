"""End-to-end HTTP service: submit/poll/result, hits, degradation."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.ir import print_function
from repro.service import (
    ServiceConfig,
    ServiceError,
    make_server,
    shutdown_server,
)
from repro.service.client import ServiceClient

from .conftest import build_mac_kernel


@pytest.fixture
def server(tmp_path):
    server = make_server(
        "127.0.0.1", 0, ServiceConfig(cache_dir=str(tmp_path / "cache"))
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    shutdown_server(server)
    thread.join(timeout=5)


@pytest.fixture
def client(server):
    host, port = server.server_address[:2]
    return ServiceClient(f"http://{host}:{port}")


IR = print_function(build_mac_kernel())


def test_health_and_stats(client):
    assert client.health() == {"ok": True}
    stats = client.stats()
    assert stats["counters"]["requests"] == 0
    assert stats["queue_depth"] == 0
    assert set(stats["tiers"]) == {"bpc", "bcr", "non"}


def test_submit_poll_result_roundtrip(client):
    status = client.submit(IR, registers=32, banks=2, method="bpc")
    assert status["cache"] == "miss"
    status = client.wait(status["job_id"])
    assert status["status"] == "done"
    assert status["served_method"] == "bpc"
    artifact = client.result_json(status["job_id"])
    assert artifact["function"] == "mac"
    assert artifact["method"] == "bpc"
    assert "%v0" in artifact["assignment"]


def test_second_identical_request_is_bit_identical_hit(client):
    first = client.wait(client.submit(IR, registers=32, banks=2)["job_id"])
    cold = client.result(first["job_id"])
    second = client.submit(IR, registers=32, banks=2)
    assert second["cache"] == "hit"
    assert second["status"] == "done"
    assert client.result(second["job_id"]) == cold
    stats = client.stats()
    assert stats["counters"]["cache_hits"] == 1
    assert stats["counters"]["executed"] == 1


def test_tiny_deadline_degrades_instead_of_timing_out(client):
    status, artifact = client.allocate(
        IR, registers=32, banks=2, method="bpc", deadline_ms=0
    )
    assert status["degraded"] is True
    assert status["served_method"] in ("bcr", "non")
    assert artifact["method"] == status["served_method"]
    assert client.stats()["counters"]["degraded"] == 1


def test_sync_allocate_envelope(client):
    status, artifact = client.allocate(IR, registers=32, banks=2, method="bcr")
    assert status["status"] == "done"
    assert artifact["method"] == "bcr"
    # The embedded artifact is exactly the stored canonical bytes.
    assert json.loads(client.result(status["job_id"])) == artifact


def test_errors_are_json(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit("definitely not ir", registers=32)
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.poll("j999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("/v1/nope")
    assert excinfo.value.status == 404


def test_dsa_file_spec_over_http(client):
    status, artifact = client.allocate(
        IR, registers=32, banks=2, subgroups=4, method="bpc"
    )
    assert status["status"] == "done"
    assert artifact["file"] == {"registers": 32, "banks": 2, "subgroups": 4}


def test_cache_dir_persists_across_server_restart(server, client, tmp_path):
    first = client.wait(client.submit(IR, registers=32, banks=2)["job_id"])
    cold = client.result(first["job_id"])
    # A second, fresh server over the same cache dir hits immediately.
    other = make_server(
        "127.0.0.1", 0, ServiceConfig(cache_dir=str(tmp_path / "cache"))
    )
    thread = threading.Thread(target=other.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = other.server_address[:2]
        reclient = ServiceClient(f"http://{host}:{port}")
        status = reclient.submit(IR, registers=32, banks=2)
        assert status["cache"] == "hit"
        assert reclient.result(status["job_id"]) == cold
    finally:
        shutdown_server(other)
        thread.join(timeout=5)


def test_burst_of_new_connections_is_answered_at_once(server):
    # 32 (the default max_concurrent_requests, so nothing is shed) fresh
    # connections at once.  One beyond the listen backlog has its SYN
    # dropped and resent after the kernel's 1 s, past the 0.5 s timeout.
    host, port = server.server_address[:2]
    clients = 32
    barrier = threading.Barrier(clients, timeout=10)
    statuses = []

    def healthz():
        barrier.wait()
        conn = http.client.HTTPConnection(host, port, timeout=0.5)
        try:
            conn.request("GET", "/healthz")
            statuses.append(conn.getresponse().status)
        except OSError as exc:
            statuses.append(repr(exc))
        finally:
            conn.close()

    threads = [threading.Thread(target=healthz) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * clients
