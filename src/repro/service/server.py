"""HTTP/JSON front-end for the allocation service (``repro serve``).

Stdlib-only (``http.server``): a :class:`ThreadingHTTPServer` whose
handlers call straight into one shared
:class:`~repro.service.queue.AllocationService`.

Endpoints (all JSON):

========================  ====================================================
``GET  /healthz``         liveness probe → ``{"ok": true}``
``GET  /v1/stats``        counters, queue depth, cache stats, tier estimates,
                          dead-letter record, fault-plan accounting
``POST /v1/submit``       enqueue a request → ``{job_id, cache, status}``
``GET  /v1/jobs/<id>``    job status (no artifact)
``GET  /v1/jobs/<id>/result``  the stored artifact bytes, verbatim
``POST /v1/allocate``     submit + wait (``?timeout_s=``) → status + artifact
``GET  /v1/metrics``      live metrics — Prometheus text exposition
                          (``?format=json`` for the raw sample)
``GET  /v1/trace/<trace_id>``  buffered spans of one distributed trace
========================  ====================================================

``/v1/jobs/<id>/result`` writes the cache's canonical bytes directly to
the socket — a cache hit is bit-identical to the cold run that filled
the entry, by construction.

Overload behavior (see ``docs/RESILIENCE.md``):

* a full service queue sheds the submit with **503** + ``Retry-After``
  (:class:`~repro.service.queue.ServiceOverloadError`);
* more than ``max_concurrent_requests`` simultaneous handlers sheds
  with **429** + ``Retry-After`` before any work is done;
* the synchronous ``/v1/allocate`` wait is capped at
  :data:`MAX_SYNC_TIMEOUT_S` regardless of the client's ``timeout_s``,
  so a stuck client cannot pin a handler thread forever — an unfinished
  job comes back as ``202`` with ``Retry-After`` and remains pollable.

The ``server.request`` fault site (:mod:`repro.resilience.faults`) can
turn any request into an injected ``5xx`` (``error``), a stall
(``delay``), or a dropped connection (``reset``) for chaos testing.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..obs import TRACE_HEADER, TRACER, TraceContext
from ..obs.telemetry import render_prometheus
from ..resilience.faults import FAULTS
from .artifact import RequestError
from .queue import (
    AllocationService,
    Job,
    ServiceConfig,
    ServiceDrainingError,
    ServiceOverloadError,
)

#: Every route the service answers, as ``(method, path template)``.
#: The docs-check test cross-references this against ``docs/SERVICE.md``
#: and a live server, so neither the table nor the handlers can drift.
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


def _job_status(job: Job) -> dict:
    return job.describe()


class ServiceHandler(BaseHTTPRequestHandler):
    """One request; the service lives on ``self.server.service``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

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
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Retry-After is integral seconds; round up so 0.5s ≠ "now".
            self.send_header("Retry-After", str(max(1, int(retry_after_s + 0.999))))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"invalid JSON body: {exc}") from exc

    @property
    def service(self) -> AllocationService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Distributed tracing (see repro.obs.tracer)
    # ------------------------------------------------------------------

    #: Span recorded around submit/allocate; the shard frontend renames
    #: it so merged traces read frontend → shard → worker.
    span_name = "server.request"

    def _trace_context(self) -> TraceContext | None:
        """The caller's trace coordinates, from ``X-Repro-Trace``."""
        if not TRACER.enabled:
            return None
        return TraceContext.parse(self.headers.get(TRACE_HEADER))

    # ------------------------------------------------------------------
    # Guard rail every request passes through: fault injection first,
    # then the concurrent-handler limit.  The incoming trace context is
    # activated for the whole handler so deep call sites (fault
    # injector, cache probes) attach events to the right trace.
    # ------------------------------------------------------------------
    def _guarded(self, handler) -> None:
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
        finally:
            slots.release()

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._do_get)

    def _do_get(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._send_json({"ok": True})
        elif url.path == "/v1/stats":
            self._send_json(self.service.stats())
        elif url.path == "/v1/metrics":
            self._get_metrics(url)
        elif len(parts) == 3 and parts[:2] == ["v1", "trace"]:
            self._send_json(self._trace_payload(parts[2]))
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._get_job(parts[2], want_result=False)
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            self._get_job(parts[2], want_result=True)
        else:
            self._send_json({"error": f"no such path {url.path!r}"}, 404)

    # -- live metrics / trace flush ------------------------------------

    def _metrics_samples(self) -> list:
        """``[(labels, sample), ...]`` — one unlabeled sample here; the
        shard frontend overrides this with per-shard labeled samples."""
        return [({}, self.service.metrics_sample())]

    def _get_metrics(self, url) -> None:
        samples = self._metrics_samples()
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

    def _trace_payload(self, trace_id: str) -> dict:
        """Everything this process buffered for one trace; the shard
        frontend overrides this to also flush every shard's buffers."""
        return {"trace_id": trace_id, "spans": TRACER.spans_for(trace_id)}

    def _get_job(self, job_id: str, want_result: bool) -> None:
        job = self.service.get(job_id)
        if job is None:
            # Dead-lettered jobs outlive the job table (and, with a
            # journal, the process): answer from the durable record.
            view = self.service.lookup(job_id)
            if view is None:
                self._send_json({"error": f"unknown job {job_id!r}"}, 404)
            else:
                self._send_json(view, 500 if want_result else 200)
            return
        if not want_result:
            self._send_json(_job_status(job))
            return
        if job.status == "failed":
            self._send_json(_job_status(job), 500)
        elif job.status != "done":
            self._send_json(_job_status(job), 202, retry_after_s=1.0)
        else:
            self._send_bytes(job.artifact or b"{}")

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._do_post)

    def _do_post(self) -> None:
        url = urlparse(self.path)
        try:
            if url.path == "/v1/submit":
                with self._request_span() as span:
                    job = self._submit(self._read_body(), span.ctx)
                self._send_json(_job_status(job), 202 if job.status == "queued" else 200)
            elif url.path == "/v1/allocate":
                self._allocate_sync(url)
            elif url.path == "/v1/admin/drain":
                self._drain(url)
            else:
                self._send_json({"error": f"no such path {url.path!r}"}, 404)
        except RequestError as exc:
            self._send_json({"error": str(exc)}, 400)
        except ServiceOverloadError as exc:
            payload = {"error": str(exc)}
            if isinstance(exc, ServiceDrainingError):
                payload["draining"] = True
            self._send_json(payload, 503, retry_after_s=exc.retry_after_s)

    def _drain(self, url) -> None:
        """Enter draining mode (idempotent; body is optional and ignored).

        Returns the live lifecycle view so callers can poll this same
        endpoint until ``drained`` flips true before restarting.
        """
        self._send_json(self.service.drain())

    def _request_span(self):
        """A :attr:`span_name` span under the caller's trace context,
        rooting a fresh trace when an untraced submit arrives while
        tracing is on."""
        return TRACER.span(self.span_name, category="server", path=self.path)

    def _submit(self, body: dict, ctx: TraceContext | None) -> Job:
        return self.service.submit(body, trace=ctx)

    def _allocate_sync(self, url) -> None:
        query = parse_qs(url.query)
        timeout = float(
            query.get("timeout_s", [DEFAULT_SYNC_TIMEOUT_S])[0]
        )
        timeout = min(max(timeout, 0.0), MAX_SYNC_TIMEOUT_S)
        with self._request_span() as span:
            job = self._submit(self._read_body(), span.ctx)
            job.wait(timeout)
        status = _job_status(job)
        if job.status == "failed":
            self._send_json(status, 500)
        elif job.status != "done":
            self._send_json(status, 202, retry_after_s=1.0)
        else:
            status["artifact"] = json.loads(job.artifact)
            self._send_json(status)


class ServiceServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`AllocationService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: AllocationService):
        super().__init__(address, ServiceHandler)
        self.service = service
        self.request_slots = threading.BoundedSemaphore(
            max(1, service.config.max_concurrent_requests)
        )


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServiceConfig | None = None,
    service: AllocationService | None = None,
) -> ServiceServer:
    """Build (but do not run) a server; ``port=0`` binds a free port.

    The dispatcher is started; callers own ``serve_forever`` /
    ``shutdown`` plus :func:`shutdown_server` for the service side.
    """
    service = service or AllocationService(config)
    service.start()
    return ServiceServer((host, port), service)


def shutdown_server(server: ServiceServer) -> None:
    """Stop the HTTP loop and the service dispatcher."""
    server.shutdown()
    server.server_close()
    server.service.stop()
