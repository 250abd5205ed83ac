"""HTTP/JSON front-end of the allocation service (``repro serve``).

Stdlib-only (``http.server``): one :class:`ServiceServer` class and one
:class:`ServiceHandler` class serve every mount.  The handler answers
each request with one call on the server's *backend*:

===============================  ========================================
``GET  /healthz``                ``health()`` → ``{"ok": true}``
``GET  /v1/stats``               ``stats()``: counters, queue depth,
                                 cache, tiers, dead letters, faults
``POST /v1/submit``              ``submit(body, trace)`` → job status
``GET  /v1/jobs/<id>``           ``poll(id, wait_s)``; ``?wait_s=``
                                 long-polls
``GET  /v1/jobs/<id>/result``    ``result(id)``: the artifact bytes
``POST /v1/allocate``            submit, ``wait(id, timeout)`` and
                                 result (``?timeout_s=``)
``GET  /v1/metrics``             ``metrics_samples()`` as Prometheus
                                 text (``?format=json``: the samples)
``GET  /v1/trace/<trace_id>``    ``trace(trace_id)``: buffered spans
``POST /v1/admin/drain``         ``drain(name)`` (``?shard=NAME``)
===============================  ========================================

:class:`ServiceBackend` is that surface over one in-process
:class:`~repro.service.queue.AllocationService` — the backend of
``repro serve`` and of every shard worker.  The
:class:`~repro.service.shard.ShardRouter` is the backend of ``repro
serve --shards N``, and its shards answer the same surface, so the API
is the same at both mounts by construction.

``/v1/jobs/<id>/result`` writes the cache's canonical bytes directly to
the socket — a cache hit is bit-identical to the cold run that filled
the entry, by construction.

Connections are HTTP/1.1 keep-alive with Nagle's algorithm off (the
header and body writes of a response must not meet the client's delayed
ACK); a connection idle for :data:`IDLE_TIMEOUT_S` is closed.  A request
body the handler did not read is drained before the response, so the
next request on the connection parses from its first byte.

Errors answer alike at every mount: a :class:`RequestError` is **400**;
a shed or draining submit (:class:`~repro.service.queue.
ServiceOverloadError`) is **503** + ``Retry-After``; any other
:class:`~repro.service.client.ServiceError` answers its own status —
``404`` for an unknown job, ``202``/``500`` with the job's status for
the ``/result`` of a job that is pending/failed, ``503`` for a shard
that cannot answer.

Overload behavior (see ``docs/RESILIENCE.md``):

* a full service queue sheds the submit with **503** + ``Retry-After``;
* more than :data:`MAX_CONCURRENT_REQUESTS` simultaneous handlers
  sheds with **429** + ``Retry-After`` before any work is done;
* the synchronous ``/v1/allocate`` wait and the ``/v1/jobs/<id>``
  long-poll are capped at :data:`MAX_SYNC_TIMEOUT_S` regardless of the
  client's ``timeout_s``/``wait_s``, so a stuck client cannot pin a
  handler thread forever — an unfinished ``/v1/allocate`` comes back as
  ``202`` with ``Retry-After``, and the job remains pollable.

The ``server.request`` fault site (:mod:`repro.resilience.faults`) can
turn any request into an injected ``5xx`` (``error``), a stall
(``delay``), or a dropped connection (``reset``) for chaos testing.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..obs import TRACE_HEADER, TRACER, TraceContext
from ..obs.telemetry import render_prometheus
from ..resilience.faults import FAULTS
from .artifact import RequestError
from .client import ServiceError
from .queue import (
    AllocationService,
    ServiceConfig,
    ServiceDrainingError,
    ServiceOverloadError,
)

#: Every route the service answers, as ``(method, path template)``.
#: The docs-check test cross-references this against ``docs/SERVICE.md``
#: and requests each one from a live server on both mounts.
ROUTES: tuple[tuple[str, str], ...] = (
    ("GET", "/healthz"),
    ("GET", "/v1/stats"),
    ("POST", "/v1/submit"),
    ("GET", "/v1/jobs/<id>"),
    ("GET", "/v1/jobs/<id>/result"),
    ("POST", "/v1/allocate"),
    ("GET", "/v1/metrics"),
    ("GET", "/v1/trace/<trace_id>"),
    ("POST", "/v1/admin/drain"),
)

#: Default wait bound of the synchronous ``/v1/allocate`` endpoint.
DEFAULT_SYNC_TIMEOUT_S = 30.0

#: Hard cap on the synchronous wait — the server-side request deadline.
MAX_SYNC_TIMEOUT_S = 120.0

#: Seconds a kept-alive connection may sit idle before the server closes it.
IDLE_TIMEOUT_S = 30.0

#: Largest unread request body drained to keep a connection; past it
#: the connection is closed instead.
MAX_DRAIN_BYTES = 1 << 20

#: Seconds a SIGTERM waits for accepted work to finish before exiting.
DRAIN_TIMEOUT_S = 10.0

#: Requests handled at once before the server sheds with ``429``.
MAX_CONCURRENT_REQUESTS = 32


def _query_seconds(url, name: str, default: float) -> float:
    """Query parameter *name* in seconds, clamped to the sync-wait cap."""
    raw = parse_qs(url.query).get(name)
    try:
        value = float(raw[0]) if raw else default
    except ValueError:
        raise RequestError(f"{name} is not a number: {raw[0]!r}") from None
    return min(max(value, 0.0), MAX_SYNC_TIMEOUT_S)


class ServiceBackend:
    """The request surface of one in-process allocation service.

    Statuses are :meth:`~repro.service.queue.Job.describe` views.  A job
    that left the job table answers from its durable dead-letter record;
    an unknown one raises :class:`ServiceError` ``404``, and the
    :meth:`result` of a job that is not done raises it with the job's
    status as the payload — ``202`` while pending, ``500`` once failed.
    """

    #: The span the handler opens around a submit.
    span_name = "server.request"

    def __init__(self, service: AllocationService):
        self.service = service

    def _live(self) -> AllocationService:
        """The service to answer from (a dead shard raises here)."""
        return self.service

    def _view(self, service: AllocationService, job_id: str) -> dict:
        view = service.lookup(job_id)  # durable dead-letter view
        if view is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return view

    def health(self) -> dict:
        return {"ok": True}

    def submit(self, body: dict, trace: TraceContext | None = None) -> dict:
        return self._live().submit(body, trace=trace).describe()

    def poll(self, job_id: str, wait_s: float = 0.0) -> dict:
        """The job's status, after waiting up to *wait_s* for it to finish."""
        service = self._live()
        job = service.get(job_id)
        if job is None:
            return self._view(service, job_id)
        if wait_s:
            job.wait(wait_s)
        return job.describe()

    def wait(self, job_id: str, timeout: float = 30.0) -> dict:
        """The job's status once it finishes or *timeout* runs out."""
        return self.poll(job_id, wait_s=timeout)

    def result(self, job_id: str) -> bytes:
        """The artifact bytes; a job that is not done raises with its
        status (a done job's bytes come back without one)."""
        service = self._live()
        job = service.get(job_id)
        if job is not None and job.status == "done":
            return job.artifact or b"{}"
        view = job.describe() if job is not None else self._view(service, job_id)
        raise ServiceError(
            f"job {job_id!r} is {view['status']}",
            status=500 if view["status"] == "failed" else 202,
            payload=view,
        )

    def stats(self) -> dict:
        return self._live().stats()

    def metrics_samples(self) -> list:
        """``[(labels, sample), ...]`` — one unlabeled sample here; a
        router stamps the ``shard`` label on."""
        return [({}, self._live().metrics_sample())]

    def trace(self, trace_id: str) -> dict:
        """Everything this process buffered for one trace."""
        self._live()
        return {"trace_id": trace_id, "spans": TRACER.spans_for(trace_id)}

    def drain(self, name: str | None = None) -> dict:
        """Enter draining mode (idempotent; *name* is the router's and is
        ignored here).  Returns the live lifecycle view, so callers poll
        this until ``drained`` flips true before restarting."""
        return self._live().drain()

    def drain_wait(self, timeout: float = 30.0) -> bool:
        """Drain and block until quiescent (or *timeout*); True if drained."""
        return self._live().drain_wait(timeout=timeout)

    def close(self) -> None:
        self.service.stop()


class ServiceHandler(BaseHTTPRequestHandler):
    """One request, answered by ``self.server.backend``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: The socket timeout while waiting for the next request on a
    #: kept-alive connection (and for any read or write in between).
    timeout = IDLE_TIMEOUT_S

    # quiet by default; the serve command flips this on with -v
    verbose = False

    def log_message(self, fmt, *args):  # noqa: D102 (stdlib signature)
        if self.verbose:
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def _send_json(
        self,
        payload: dict,
        status: int = 200,
        retry_after_s: float | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(body, status, retry_after_s=retry_after_s)

    def _send_bytes(
        self,
        body: bytes,
        status: int = 200,
        retry_after_s: float | None = None,
        content_type: str = "application/json",
    ) -> None:
        self._drain_body()
        self.send_response(status)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Retry-After is integral seconds; round up so 0.5s ≠ "now".
            self.send_header("Retry-After", str(max(1, int(retry_after_s + 0.999))))
        self.end_headers()
        self.wfile.write(body)

    def _drain_body(self) -> None:
        """Consume a request body the handler never read (a shed, failed
        or unknown POST): left on a kept-alive connection, it would be
        parsed as the next request.  Too large to drain, it closes the
        connection instead."""
        if self._body_read:
            return
        self._body_read = True
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_DRAIN_BYTES:
            self.rfile.read(length)
        else:
            self.close_connection = True

    def _read_body(self) -> dict:
        self._body_read = True
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"invalid JSON body: {exc}") from exc

    @property
    def backend(self):
        return self.server.backend  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Distributed tracing (see repro.obs.tracer)
    # ------------------------------------------------------------------
    def _trace_context(self) -> TraceContext | None:
        """The caller's trace coordinates, from ``X-Repro-Trace``."""
        if not TRACER.enabled:
            return None
        return TraceContext.parse(self.headers.get(TRACE_HEADER))

    def _request_span(self):
        """The backend's request span under the caller's trace context,
        rooting a fresh trace when an untraced submit arrives while
        tracing is on."""
        return TRACER.span(
            self.backend.span_name, category="server", path=self.path
        )

    # ------------------------------------------------------------------
    # Guard rail every request passes through: fault injection first,
    # then the concurrent-handler limit; an error raised by any handler
    # answers as the module docstring lists.  The incoming trace context
    # is activated for the whole handler so deep call sites (fault
    # injector, cache probes) attach events to the right trace.
    # ------------------------------------------------------------------
    def _guarded(self, handler) -> None:
        self._body_read = False
        with TRACER.activate(self._trace_context()):
            self._guarded_inner(handler)

    def _guarded_inner(self, handler) -> None:
        if FAULTS.enabled:
            point = FAULTS.fire("server.request", label=self.path)
            if point is not None:
                if point.mode == "reset":
                    # Drop the connection with no response at all — the
                    # client sees a reset / empty reply.
                    self.close_connection = True
                    try:
                        self.connection.close()
                    except OSError:
                        pass
                    return
                if point.mode == "delay":
                    time.sleep(float(point.detail.get("delay_s", 0.05)))
                elif point.mode == "error":
                    status = int(point.detail.get("status", 500))
                    self._send_json(
                        {"error": "injected server fault", "injected": True},
                        status,
                    )
                    return
        slots = self.server.request_slots  # type: ignore[attr-defined]
        if not slots.acquire(blocking=False):
            self._send_json(
                {"error": "too many concurrent requests"},
                429,
                retry_after_s=1.0,
            )
            return
        try:
            handler()
        except RequestError as exc:
            self._send_json({"error": str(exc)}, 400)
        except ServiceOverloadError as exc:
            payload = {"error": str(exc)}
            if isinstance(exc, ServiceDrainingError):
                payload["draining"] = True
            self._send_json(payload, 503, retry_after_s=exc.retry_after_s)
        except ServiceError as exc:
            # A job that is not done answers with its status; anything
            # else with the error, under the status it carries.
            payload = exc.payload
            if payload is None or "job_id" not in payload:
                payload = {"error": str(exc)}
            self._send_json(
                payload,
                exc.status or 502,
                retry_after_s=1.0 if exc.status in (202, 503) else None,
            )
        finally:
            slots.release()

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._do_get)

    def _do_get(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._send_json(self.backend.health())
        elif url.path == "/v1/stats":
            self._send_json(self.backend.stats())
        elif url.path == "/v1/metrics":
            self._get_metrics(url)
        elif len(parts) == 3 and parts[:2] == ["v1", "trace"]:
            self._send_json(self.backend.trace(parts[2]))
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            wait_s = _query_seconds(url, "wait_s", 0.0)
            self._send_json(self.backend.poll(parts[2], wait_s=wait_s))
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            self._send_bytes(self.backend.result(parts[2]))
        else:
            self._send_json({"error": f"no such path {url.path!r}"}, 404)

    def _get_metrics(self, url) -> None:
        samples = self.backend.metrics_samples()
        query = parse_qs(url.query)
        if query.get("format", [""])[0] == "json":
            self._send_json(
                {"samples": [{"labels": l, "sample": s} for l, s in samples]}
            )
            return
        text = render_prometheus(samples)
        self._send_bytes(
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._do_post)

    def _do_post(self) -> None:
        url = urlparse(self.path)
        if url.path == "/v1/submit":
            with self._request_span() as span:
                status = self.backend.submit(self._read_body(), trace=span.ctx)
            self._send_json(status, 202 if status["status"] == "queued" else 200)
        elif url.path == "/v1/allocate":
            self._allocate(url)
        elif url.path == "/v1/admin/drain":
            # Idempotent: repeat to poll ``drained``.  A router needs
            # ``?shard=NAME`` to know which worker to take down.
            name = parse_qs(url.query).get("shard", [None])[0]
            self._send_json(self.backend.drain(name))
        else:
            self._send_json({"error": f"no such path {url.path!r}"}, 404)

    def _allocate(self, url) -> None:
        timeout = _query_seconds(url, "timeout_s", DEFAULT_SYNC_TIMEOUT_S)
        with self._request_span() as span:
            status = self.backend.submit(self._read_body(), trace=span.ctx)
            if status["status"] not in ("done", "failed"):
                status = self.backend.wait(status["job_id"], timeout)
        if status["status"] == "failed":
            self._send_json(status, 500)
        elif status["status"] != "done":
            self._send_json(status, 202, retry_after_s=1.0)
        else:
            status["artifact"] = json.loads(self.backend.result(status["job_id"]))
            self._send_json(status)


class ServiceServer(ThreadingHTTPServer):
    """The threading HTTP server of every mount: one
    :class:`ServiceHandler` per request, all answered by *backend*.

    Closing does not wait out idle kept-alive connections:
    ``server_close`` joins every handler thread, and a thread waiting
    for the next request on an idle connection would hold it for up to
    :data:`IDLE_TIMEOUT_S`.  Shutting the read side of each open
    connection first ends those waits, while a handler in the middle of
    a request still writes its response.  ``request_slots`` bounds the
    requests handled at once to :data:`MAX_CONCURRENT_REQUESTS` (the
    ``429`` guard).
    """

    daemon_threads = True
    #: Listen backlog (the kernel caps it at its own limit).
    #: ``socketserver``'s default of 5 drops the SYNs of a burst of new
    #: connections, and the kernel resends those only after 1 s.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address, backend):
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, ServiceHandler)
        self.backend = backend
        self.request_slots = threading.BoundedSemaphore(
            MAX_CONCURRENT_REQUESTS
        )

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        with self._open_lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        super().server_close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServiceConfig | None = None,
) -> ServiceServer:
    """Build (but do not run) a server over one service; ``port=0``
    binds a free port.

    The dispatcher is started; callers own ``serve_forever`` /
    ``shutdown`` plus :func:`shutdown_server` for the service side.
    """
    service = AllocationService(config)
    service.start()
    return ServiceServer((host, port), ServiceBackend(service))


def shutdown_server(server: ServiceServer) -> None:
    """Stop the HTTP loop, then close the backend (the service's
    dispatcher, or a router's health loop and workers)."""
    server.shutdown()
    server.server_close()
    server.backend.close()


def serve_until_stopped(server: ServiceServer, ready) -> None:
    """Serve on this (main) thread until SIGTERM or Ctrl-C, then shut down.

    SIGTERM is graceful: the backend drains while the server still
    answers — new submits get a draining ``503``, accepted jobs finish
    and stay pollable, the journal syncs — and only then does the HTTP
    loop stop.  SIGKILL skips all of it: that is the crash the
    write-ahead journal recovers from.  *ready* announces the server
    (prints its address, or sends a worker's port to its parent) once
    the handler is in place, so a SIGTERM sent on the announcement is
    graceful too.
    """

    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        def _stop():
            server.backend.drain_wait(timeout=DRAIN_TIMEOUT_S)
            server.shutdown()

        threading.Thread(target=_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    ready()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        shutdown_server(server)
