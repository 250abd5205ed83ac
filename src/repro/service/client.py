"""Small Python client for the allocation service.

Stdlib-only (``urllib``).  Mirrors the server's endpoints with
submit/poll/result calls plus a blocking :meth:`ServiceClient.allocate`
convenience::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8377")
    status = client.submit(ir_text, registers=32, banks=2, method="bpc")
    status = client.wait(status["job_id"])
    artifact = client.result_json(status["job_id"])

Resilience (see ``docs/RESILIENCE.md``):

* every call carries a socket timeout (no hung-forever requests);
* transient failures — connection errors, timeouts, ``429``/``503``
  shed responses — are retried up to ``retries`` times with exponential
  backoff plus deterministic jitter, honoring the server's
  ``Retry-After`` when present.  Retrying a submit is safe: requests
  are content-addressed and coalesced server-side, so a duplicate
  submission attaches to the same job instead of redoing work;
* a **circuit breaker** trips OPEN after ``breaker_threshold``
  consecutive transport failures and fails fast (no network I/O) until
  ``breaker_cooldown_s`` elapses, then HALF-OPEN admits one trial call;
* the ``client.request`` fault site (:mod:`repro.resilience.faults`)
  can inject timeouts and connection resets ahead of the socket for
  chaos testing.

Non-transient HTTP errors (``400`` bad request, ``404``, a ``500`` job
failure) are never retried — they would fail identically every time.

Telemetry: pass a :class:`~repro.obs.TraceContext` to
:meth:`ServiceClient.submit` / :meth:`~ServiceClient.submit_request` /
:meth:`~ServiceClient.allocate` and the client sends it as the
``X-Repro-Trace`` header (submits only — polls are uninteresting spam);
retries and breaker trips become span events on that trace.
"""

from __future__ import annotations

import json
import random
import socket
import time
import urllib.error
import urllib.request

from ..obs import TRACE_HEADER, TRACER, TraceContext
from ..resilience.faults import FAULTS, InjectedFault

#: HTTP statuses worth retrying: the server shed load, not failed us.
RETRYABLE_STATUSES = (429, 503)

#: Upper bound on any single backoff sleep (seconds).
MAX_BACKOFF_S = 5.0


class ServiceError(RuntimeError):
    """Transport failure or an error response from the service."""

    def __init__(
        self, message: str, status: int | None = None, draining: bool = False
    ):
        super().__init__(message)
        self.status = status
        #: True for a 503 from a *draining* service: retrying the same
        #: endpoint is pointless — the router hands the key elsewhere.
        self.draining = draining


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open; no request was attempted."""


class _CircuitBreaker:
    """CLOSED → OPEN after N consecutive failures → HALF_OPEN after a
    cooldown admits one trial → CLOSED on success, OPEN on failure."""

    def __init__(self, threshold: int, cooldown_s: float):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opened_mono: float | None = None

    @property
    def state(self) -> str:
        if self.opened_mono is None:
            return "closed"
        if time.monotonic() - self.opened_mono >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        return self.state != "open"

    def record(self, ok: bool) -> None:
        if ok:
            self.failures = 0
            self.opened_mono = None
            return
        self.failures += 1
        if self.failures >= self.threshold or self.state == "half-open":
            self.opened_mono = time.monotonic()


class ServiceClient:
    """Thin HTTP/JSON client; one instance per server base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        *,
        retries: int = 2,
        backoff_s: float = 0.1,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 5.0,
        jitter_seed: int = 0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.breaker = _CircuitBreaker(breaker_threshold, breaker_cooldown_s)
        # Seeded jitter keeps chaos runs reproducible end to end.
        self._rng = random.Random(jitter_seed)

    # ------------------------------------------------------------------
    def _request_once(
        self,
        path: str,
        body: dict | None = None,
        raw: bool = False,
        trace: TraceContext | None = None,
    ):
        if FAULTS.enabled:
            point = FAULTS.fire("client.request", label=path)
            if point is not None:
                if point.mode == "timeout":
                    raise socket.timeout("injected client timeout")
                if point.mode == "connreset":
                    raise ConnectionResetError("injected connection reset")
        url = f"{self.base_url}{path}"
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if trace is not None and TRACER.enabled:
            headers[TRACE_HEADER] = trace.header()
        req = urllib.request.Request(url, data=data, headers=headers)
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            payload = resp.read()
        return payload if raw else json.loads(payload)

    def _request(
        self,
        path: str,
        body: dict | None = None,
        raw: bool = False,
        trace: TraceContext | None = None,
    ):
        if not self.breaker.allow():
            TRACER.event("client.breaker_open", ctx=trace, path=path)
            raise CircuitOpenError(
                f"{path}: circuit breaker open after "
                f"{self.breaker.failures} consecutive failures"
            )
        last_error: ServiceError | None = None
        for attempt in range(self.retries + 1):
            retry_after: float | None = None
            try:
                result = self._request_once(path, body, raw, trace)
                self.breaker.record(ok=True)
                return result
            except urllib.error.HTTPError as exc:
                detail = exc.read().decode("utf-8", "replace")
                draining = False
                try:
                    parsed = json.loads(detail)
                    draining = bool(parsed.get("draining"))
                    detail = parsed.get("error", detail)
                except (json.JSONDecodeError, AttributeError):
                    pass
                error = ServiceError(
                    f"{path}: HTTP {exc.code}: {detail}",
                    status=exc.code,
                    draining=draining,
                )
                if exc.code not in RETRYABLE_STATUSES or draining:
                    # A definitive answer from the server (a draining
                    # 503 included — this endpoint will keep refusing
                    # until it restarts): the breaker stays closed
                    # (transport works) and we do not retry.
                    self.breaker.record(ok=True)
                    raise error from exc
                header = exc.headers.get("Retry-After") if exc.headers else None
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
                last_error = error
            except (
                urllib.error.URLError,
                socket.timeout,
                ConnectionError,
                InjectedFault,
            ) as exc:
                reason = getattr(exc, "reason", exc)
                last_error = ServiceError(f"{path}: {reason}")
                self.breaker.record(ok=False)
                if not self.breaker.allow():
                    TRACER.event(
                        "client.breaker_trip", ctx=trace,
                        path=path, failures=self.breaker.failures,
                    )
                    break
            if attempt < self.retries:
                TRACER.event(
                    "client.retry", ctx=trace,
                    path=path, attempt=attempt + 1,
                    error=str(last_error)[:160],
                )
                time.sleep(self._backoff(attempt, retry_after))
        raise last_error  # type: ignore[misc]

    def _backoff(self, attempt: int, retry_after: float | None) -> float:
        """Exponential backoff with jitter, deferring to ``Retry-After``."""
        if retry_after is not None:
            return min(max(retry_after, 0.0), MAX_BACKOFF_S)
        base = self.backoff_s * (2 ** attempt)
        # Full jitter on the top half: [base/2, base].
        return min(base * (0.5 + self._rng.random() / 2.0), MAX_BACKOFF_S)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("/healthz")

    def stats(self) -> dict:
        return self._request("/v1/stats")

    def submit(
        self,
        ir: str,
        *,
        registers: int,
        banks: int = 2,
        subgroups: int = 0,
        method: str = "bpc",
        flags: dict | None = None,
        machine: dict | str | None = None,
        deadline_ms: float | None = None,
        trace: TraceContext | None = None,
    ) -> dict:
        """Enqueue one allocation; returns the job status dict.

        *machine* selects the cycle model measured into the artifact —
        ``"ooo"`` or a spec dict like ``{"model": "ooo", "issue_width":
        4}``; omitted means the in-order default and keeps the request
        byte-compatible with machine-unaware servers.
        """
        body: dict = {
            "ir": ir,
            "file": {
                "registers": registers,
                "banks": banks,
                "subgroups": subgroups,
            },
            "method": method,
        }
        if flags:
            body["flags"] = flags
        if machine is not None:
            body["machine"] = machine
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._request("/v1/submit", body, trace=trace)

    def submit_request(
        self, body: dict, trace: TraceContext | None = None
    ) -> dict:
        """Enqueue a pre-built request body (the shard router's path).

        The router normalizes the request once and forwards the
        canonical fields verbatim, so re-normalization at the shard is
        idempotent and the content address cannot fork across hops.
        """
        return self._request("/v1/submit", body, trace=trace)

    def poll(self, job_id: str) -> dict:
        return self._request(f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> bytes:
        """The artifact's canonical bytes, verbatim from the cache."""
        return self._request(f"/v1/jobs/{job_id}/result", raw=True)

    def result_json(self, job_id: str) -> dict:
        return json.loads(self.result(job_id))

    def wait(
        self, job_id: str, timeout: float = 30.0, interval: float = 0.02
    ) -> dict:
        """Poll until the job leaves the queue or *timeout* elapses."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.poll(job_id)
            if status["status"] in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['status']} after {timeout}s"
                )
            time.sleep(interval)

    def allocate(self, ir: str, **kwargs) -> tuple[dict, dict]:
        """submit + wait + result: ``(status, artifact)``."""
        timeout = kwargs.pop("timeout", 30.0)
        status = self.submit(ir, **kwargs)
        status = self.wait(status["job_id"], timeout=timeout)
        if status["status"] == "failed":
            raise ServiceError(
                f"job {status['job_id']} failed: {status.get('error')}"
            )
        return status, self.result_json(status["job_id"])

    # ------------------------------------------------------------------
    # Lifecycle control
    # ------------------------------------------------------------------
    def drain(self) -> dict:
        """``POST /v1/admin/drain`` — idempotent; returns the lifecycle
        view (poll until ``drained`` is true before restarting)."""
        return self._request("/v1/admin/drain", body={})

    # ------------------------------------------------------------------
    # Telemetry fetchers
    # ------------------------------------------------------------------
    def metrics_json(self) -> dict:
        """``GET /v1/metrics?format=json`` — the labeled-sample form the
        shard router aggregates."""
        return self._request("/v1/metrics?format=json")

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — the Prometheus text exposition."""
        return self._request("/v1/metrics", raw=True).decode("utf-8")

    def trace(self, trace_id: str) -> dict:
        """``GET /v1/trace/<trace_id>`` — the server's merged span
        payload (:func:`~repro.obs.chrome_trace` renders it)."""
        return self._request(f"/v1/trace/{trace_id}")
