"""The HTTP transport on both hops: kept-alive connections, request-body
draining, long-poll waits and the one-hop result fetch.

Every server here runs in-process.  The frontend→shard hop uses
:class:`ThreadShard`, a :class:`~repro.service.shard.ProcessShard` whose
worker is a server thread instead of a child process, so the hop runs
the real client and the real server over real sockets.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from http.server import BaseHTTPRequestHandler

import pytest

from repro.ir import print_function
from repro.obs import TRACER, TraceContext, reset_all
from repro.resilience import FAULTS, FaultPlan
from repro.resilience.faults import FaultPoint
from repro.service import (
    RequestError,
    ServiceConfig,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadError,
    ShardError,
    make_server,
    shutdown_server,
)
from repro.service import client as client_module
from repro.service import queue as queue_module
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.server import ServiceHandler, ServiceServer
from repro.service.shard import LocalShard, ProcessShard, ShardRouter

from .conftest import build_mac_kernel

FILE = {"registers": 32, "banks": 2}


def request_for(trip_count: int = 16) -> dict:
    ir = print_function(build_mac_kernel(trip_count=trip_count))
    return {"ir": ir, "file": FILE, "method": "bpc"}


@pytest.fixture(autouse=True)
def clean():
    yield
    FAULTS.disarm()
    TRACER.enable(False, process="main", bounded=False)
    reset_all()


def arm(*points: FaultPoint) -> None:
    FAULTS.arm(FaultPlan(seed=0, points=list(points)))


def stall(seconds: float) -> FaultPoint:
    """Hold the next allocation *seconds* before it runs."""
    return FaultPoint(
        site="queue.execute", mode="stall", times=1,
        detail={"stall_s": seconds},
    )


def count_accepts(server) -> list:
    """Record every connection *server* accepts from now on."""
    accepts: list = []
    accept = server.get_request

    def counted():
        connection = accept()
        accepts.append(connection[1])
        return connection

    server.get_request = counted
    return accepts


def serve(server):
    """Run *server* on a thread (a short poll keeps its shutdown quick)."""
    thread = threading.Thread(
        target=server.serve_forever, args=(0.05,), daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


class ThreadShard(ProcessShard):
    """A :class:`ProcessShard` whose worker is a server thread; the
    front end reaches it through :class:`ProcessShard`'s own client."""

    pid = None

    def _boot(self) -> None:
        self.server = make_server(self._host, 0, self._config)
        self.accepts = count_accepts(self.server)
        self.process = threading.Thread(
            target=self.server.serve_forever, args=(0.05,), daemon=True
        )
        self.process.start()
        self.port = self.server.server_address[1]
        self._connect()

    def kill(self) -> None:
        if self.process.is_alive():
            shutdown_server(self.server)
            self.process.join(timeout=5)


class Fleet:
    """A frontend over two shards, in-process or behind HTTP."""

    def __init__(self, kind: str, config: ServiceConfig):
        shard = ThreadShard if kind == "http" else LocalShard
        self.shards = [shard(f"s{i}", config) for i in range(2)]
        self.server = ServiceServer(
            ("127.0.0.1", 0), ShardRouter(self.shards)
        )
        self.accepts = count_accepts(self.server)
        self.url = serve(self.server)

    def close(self) -> None:
        shutdown_server(self.server)


@pytest.fixture
def single():
    server = make_server("127.0.0.1", 0, ServiceConfig())
    server.url = serve(server)
    server.accepts = count_accepts(server)
    yield server
    shutdown_server(server)


@pytest.fixture(params=["local", "http"])
def fleet(request):
    fleet = Fleet(request.param, ServiceConfig())
    yield fleet
    fleet.close()


@pytest.fixture(params=["single", "local", "http"])
def endpoint(request):
    """The URL of a single server or of a frontend over either fleet."""
    if request.param == "single":
        server = make_server("127.0.0.1", 0, ServiceConfig())
        yield serve(server)
        shutdown_server(server)
    else:
        fleet = Fleet(request.param, ServiceConfig())
        yield fleet.url
        fleet.close()


# ----------------------------------------------------------------------
# An unread request body never reaches the next request
# ----------------------------------------------------------------------
def _hold_every_slot(server) -> list:
    """Take every request slot; returns the ones to give back."""
    held = []
    while server.request_slots.acquire(blocking=False):
        held.append(server.request_slots)
    return held


@pytest.mark.parametrize("case", ["unknown", "shed", "injected", "drain"])
@pytest.mark.parametrize("kind", ["single", "frontend"])
def test_unread_body_does_not_break_the_next_request(kind, case):
    if kind == "single":
        server = make_server("127.0.0.1", 0, ServiceConfig())
        stop = shutdown_server
    else:
        server = ServiceServer(
            ("127.0.0.1", 0),
            ShardRouter([LocalShard("s0", ServiceConfig())]),
        )
        stop = shutdown_server
    serve(server)
    held: list = []
    path = {"unknown": "/v1/nope", "drain": "/v1/admin/drain"}.get(
        case, "/v1/submit"
    )
    # The frontend's drain needs ?shard=NAME, so it refuses with a 400.
    expected = {"unknown": 404, "shed": 429, "injected": 500,
                "drain": 200 if kind == "single" else 400}[case]
    if case == "injected":
        arm(FaultPoint(site="server.request", mode="error", times=1,
                       detail={"status": 500}))
    try:
        conn = http.client.HTTPConnection(*server.server_address[:2])
        if case == "shed":
            held = _hold_every_slot(server)
        body = json.dumps(request_for()).encode("utf-8")
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        first = conn.getresponse()
        first.read()
        while held:
            held.pop().release()
        assert first.status == expected
        conn.request("GET", "/healthz")
        second = conn.getresponse()
        assert second.status == 200, second.read()
        assert json.loads(second.read())["ok"] is True
        conn.close()
    finally:
        while held:
            held.pop().release()
        stop(server)


# ----------------------------------------------------------------------
# /result of a pending job is a 202 error, not an artifact
# ----------------------------------------------------------------------
def test_result_of_a_pending_job_raises_202(single, monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF_S", 0.5)
    arm(stall(1.0))
    client = ServiceClient(single.url, retries=2)
    status = client.submit_request(request_for())
    started = time.monotonic()
    with pytest.raises(ServiceError) as excinfo:
        client.result(status["job_id"])
    assert excinfo.value.status == 202
    assert excinfo.value.payload["job_id"] == status["job_id"]
    assert excinfo.value.payload["status"] in ("queued", "running")
    # Not retried (a retry would sleep its backoff), no breaker failure.
    assert time.monotonic() - started < 0.5
    assert client.breaker.failures == 0
    assert client.breaker.state == "closed"
    done = client.wait(status["job_id"])
    assert done["status"] == "done"
    assert json.loads(client.result(status["job_id"]))["function"] == "mac"


def test_local_shard_result_of_a_pending_job_raises_202():
    shard = LocalShard("s0", ServiceConfig())
    arm(stall(1.0))
    try:
        status = shard.submit(request_for())
        with pytest.raises(ServiceError) as excinfo:
            shard.result(status["job_id"])
        assert excinfo.value.status == 202
        assert excinfo.value.payload["status"] in ("queued", "running")
    finally:
        shard.close()


@pytest.mark.parametrize("kind", ["local", "http"])
def test_both_shard_kinds_raise_alike(kind, monkeypatch):
    # A queue depth of 0 sheds every miss.
    monkeypatch.setattr(queue_module, "MAX_QUEUE_DEPTH", 0)
    config = ServiceConfig()
    if kind == "local":
        shard = LocalShard("s0", config)
    else:
        shard = ThreadShard("s0", config)
    try:
        with pytest.raises(RequestError):
            shard.submit({"ir": "not ir", "file": FILE, "method": "bpc"})
        with pytest.raises(ServiceOverloadError) as excinfo:
            shard.submit(request_for())
        assert not isinstance(excinfo.value, ServiceDrainingError)
        shard.drain()
        with pytest.raises(ServiceDrainingError):
            shard.submit(request_for())
        shard.kill()
        with pytest.raises(ShardError):
            shard.submit(request_for())
    finally:
        shard.close()


def test_http_shard_forwards_a_shed_submit_once(monkeypatch):
    # Built as make_shard_server builds its workers: the shard hop sends
    # a shed submit to the worker once and raises at once, leaving the
    # retry (and its Retry-After) to the end client.
    monkeypatch.setattr(queue_module, "MAX_QUEUE_DEPTH", 0)
    shard = ThreadShard("s0", ServiceConfig())
    try:
        started = time.monotonic()
        with pytest.raises(ServiceOverloadError):
            shard.submit(request_for())
        elapsed = time.monotonic() - started
        counters = shard.server.backend.service.counters
        assert (counters["requests"], counters["shed"]) == (1, 1)
        assert len(shard.accepts) == 1
        assert elapsed < 0.5  # no Retry-After slept on the hop
    finally:
        shard.close()


def test_frontend_result_is_202_pending_and_500_failed(fleet):
    client = ServiceClient(fleet.url, retries=0)
    arm(stall(1.0))
    status = client.submit_request(request_for())
    with pytest.raises(ServiceError) as excinfo:
        client.result(status["job_id"])
    assert excinfo.value.status == 202
    assert excinfo.value.payload["job_id"] == status["job_id"]
    assert excinfo.value.payload["shard"] == status["shard"]
    assert client.wait(status["job_id"])["status"] == "done"
    assert client.result(status["job_id"]).startswith(b"{")

    # A job that fails for good: 500, with its shard-qualified status.
    arm(FaultPoint(site="queue.execute", mode="error"))
    status = client.submit_request(request_for(trip_count=8))
    assert client.wait(status["job_id"])["status"] == "failed"
    with pytest.raises(ServiceError) as excinfo:
        client.result(status["job_id"])
    assert excinfo.value.status == 500
    assert excinfo.value.payload["job_id"] == status["job_id"]
    assert excinfo.value.payload["status"] == "failed"


# ----------------------------------------------------------------------
# One connection per client thread, on both hops
# ----------------------------------------------------------------------
def test_one_thread_opens_one_connection(single):
    client = ServiceClient(single.url)
    for trips in (8, 16, 32):
        status = client.submit_request(request_for(trips))
        client.wait(status["job_id"])
        client.result(status["job_id"])
        client.submit_request(request_for(trips))  # a hit
    client.stats()
    assert len(single.accepts) == 1


def test_frontend_to_shard_hop_reuses_one_connection():
    fleet = Fleet("http", ServiceConfig())
    try:
        client = ServiceClient(fleet.url)
        for trips in (4, 8, 16, 32, 64):
            status = client.submit_request(request_for(trips))
            client.wait(status["job_id"])
            client.result(status["job_id"])
            client.submit_request(request_for(trips))
        assert len(fleet.accepts) == 1
        # One frontend handler thread, so one connection per shard used.
        assert [len(shard.accepts) for shard in fleet.shards] == [1, 1]
    finally:
        fleet.close()


def test_shared_client_never_interleaves_requests(single):
    client = ServiceClient(single.url)
    jobs = [client.submit_request(request_for(2 + i))["job_id"] for i in range(8)]
    errors: list = []

    def poll_own(job_id: str) -> None:
        try:
            for _ in range(25):
                assert client.poll(job_id)["job_id"] == job_id
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=poll_own, args=(j,)) for j in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    # The main thread's connection plus one per polling thread.
    assert len(single.accepts) == 1 + 8


# ----------------------------------------------------------------------
# Idle timeout, Nagle, long-poll
# ----------------------------------------------------------------------
def test_idle_closed_connection_is_resent_silently(monkeypatch):
    monkeypatch.setattr(ServiceHandler, "timeout", 0.2)
    server = make_server("127.0.0.1", 0, ServiceConfig())
    url = serve(server)
    accepts = count_accepts(server)
    TRACER.enable(process="test", bounded=True)
    try:
        client = ServiceClient(url, retries=0)
        outcomes: list = []
        record = client.breaker.record
        client.breaker.record = lambda ok: (outcomes.append(ok), record(ok))
        assert client.health() == {"ok": True}
        time.sleep(0.6)  # the server closes the idle connection
        ctx = TraceContext.new()
        status = client.submit_request(request_for(), trace=ctx)
        assert status["job_id"]
        assert len(accepts) == 2
        assert outcomes == [True, True]
        names = [s["name"] for s in TRACER.spans_for(ctx.trace_id)]
        assert "client.retry" not in names
    finally:
        shutdown_server(server)


def test_sequential_hits_do_not_stall_on_delayed_acks(endpoint):
    client = ServiceClient(endpoint)
    request = request_for()
    client.wait(client.submit_request(request)["job_id"])
    started = time.perf_counter()
    for _ in range(20):
        assert client.submit_request(request)["cache"] == "hit"
    # A Nagle/delayed-ACK stall costs 40 ms per request.
    assert time.perf_counter() - started < 20 * 0.040 / 2


def test_long_poll_returns_when_the_job_finishes(endpoint):
    client = ServiceClient(endpoint)
    arm(stall(0.3))
    status = client.submit_request(request_for())
    started = time.monotonic()
    done = client.poll(status["job_id"], wait_s=4.0)
    assert done["status"] == "done"
    assert time.monotonic() - started < 3.0


def test_long_poll_at_the_cap_returns_the_pending_status(endpoint, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_SYNC_TIMEOUT_S", 0.2)
    client = ServiceClient(endpoint)
    arm(stall(0.8))
    status = client.submit_request(request_for())
    started = time.monotonic()
    pending = client.poll(status["job_id"], wait_s=4.0)
    assert pending["status"] in ("queued", "running")
    assert time.monotonic() - started < 0.6
    assert client.wait(status["job_id"])["status"] == "done"


class _IgnoresWait(BaseHTTPRequestHandler):
    """Answers every poll at once with a job that never finishes."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 (stdlib naming)
        self.server.polls += 1
        body = b'{"job_id": "j1", "status": "queued"}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


def test_wait_does_not_busy_loop_when_wait_s_is_ignored():
    server = ServiceServer(("127.0.0.1", 0), None)
    server.RequestHandlerClass = _IgnoresWait
    server.polls = 0
    url = serve(server)
    try:
        client = ServiceClient(url)
        with pytest.raises(ServiceError, match="still queued"):
            client.wait("j1", timeout=0.5, interval=0.05)
        assert 2 <= server.polls <= 0.5 / 0.05 + 2
    finally:
        server.shutdown()
        server.server_close()
