"""Shard-aware front end: consistent-hash the key space over N workers.

One :class:`~repro.service.queue.AllocationService` scales until its
dispatcher thread saturates a core.  The shard layer scales *out*: a
:class:`ShardRouter` consistent-hashes the content-address key space
over N workers, each owning its **own** cache shard directory — no two
workers ever race on one disk entry, and in-flight coalescing keeps
working because identical requests always land on the same shard.

Topology (see ``docs/SCALING.md``)::

    client ──HTTP──▶ ServiceServer ──▶ ShardRouter (its backend)
                                              │ consistent-hash ring
                    ┌─────────────────────────┼─────────────────────┐
                    ▼                         ▼                     ▼
              worker shard s0           worker shard s1       worker shard s2
              (ServiceServer over       (own process,         ...
               its service, cache s0)   cache dir s1)

The pieces:

* :class:`HashRing` — consistent hashing with virtual nodes.  Vnode
  positions derive from the shard *name*, so a respawned worker takes
  back exactly its old slice of the key space, and removing a dead
  shard remaps **only that shard's keys** (everything else keeps its
  owner — the rebalance-on-eviction invariant the tests pin down).
* :class:`LocalShard` — an in-process worker: the
  :class:`~repro.service.server.ServiceBackend` of one
  :class:`~repro.service.queue.AllocationService` with its own cache
  dir, plus the shard lifecycle.  Deterministic and fast; the tests,
  benches, and the loadgen direct mode run on it.
* :class:`ProcessShard` — a worker *process* running the stock HTTP
  server on a free port (the child sends the port back over a pipe),
  spoken to through :class:`~repro.service.client.ServiceClient` —
  which brings the PR-5 retry/backoff machinery to every hop, and one
  kept-alive connection per frontend thread (handler or health loop).
  It raises what a :class:`LocalShard` raises for the same answer.
* :class:`ShardRouter` — resolves each request's content address
  from a bounded memo keyed by the digest of its canonical JSON
  (:func:`~repro.service.artifact.normalize_request` runs only on a memo
  miss), routes by that address down the ring's preference order,
  forwards the body as received (the owning worker normalizes it for
  its cache), and namespaces job ids as ``<local id>@<shard>`` so polls
  route back.  A long-poll (``wait_s``) is forwarded to the owning
  shard and a result fetch is one shard call, pending or not.  Health checks
  reuse the client-side circuit breaker per shard: a worker that keeps
  failing its probe is **evicted** from the ring (its keys rehash to
  the survivors) and, once the breaker's cooldown admits a trial,
  **respawned** and re-added — taking its old keys back.
* :func:`make_shard_server` — the HTTP face (``repro serve --shards
  N``): the one :class:`~repro.service.server.ServiceServer` with the
  router as its backend.  Every shard and the router answer the same
  request surface, so the routes are the single server's;
  ``/v1/stats`` aggregates counters across shards.

Chaos coverage: the ``shard.route`` fault site (mode ``handoff``)
forces the router to skip its first choice, and ``shard.worker``
(``death`` / ``kill9`` / ``unhealthy``) breaks workers under the health
loop (:mod:`repro.resilience.faults`).

Lifecycle (PR 10, see ``docs/RESILIENCE.md``): ``POST
/v1/admin/drain?shard=NAME`` drains one worker (off the ring for new
keys, in-flight finishes, polls keep resolving), and
:meth:`ShardRouter.rolling_restart` drains → restarts → rejoins shards
one at a time — with per-shard journals (``--journal``) a restarted or
even SIGKILLed worker replays its accepted-but-unfinished jobs on boot.

Telemetry: when :data:`~repro.obs.TRACER` is enabled the frontend
opens a ``frontend.request`` span per HTTP request, the router nests a
``route`` span under it (handoffs, evictions, and shard failures
become span events), and the trace context rides the ``X-Repro-Trace``
header into each worker process — so ``GET /v1/trace/<trace_id>`` can
merge the per-shard span buffers into one coherent trace, down to the
pass and analysis spans of the job a miss ran.  ``GET /v1/metrics`` at
the frontend aggregates every shard's registry under a ``shard`` label
next to the router's own counters.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, replace

from ..obs import TRACER, TraceContext
from ..obs.telemetry import SLOTracker, StreamingHistogram
from ..resilience.faults import FAULTS
from .artifact import RequestError, canonical_json, normalize_request
from .client import (
    RETRYABLE_STATUSES,
    ServiceClient,
    ServiceError,
    _CircuitBreaker,
)
from .queue import (
    AllocationService,
    ServiceConfig,
    ServiceDrainingError,
    ServiceOverloadError,
)
from .server import ServiceBackend, ServiceServer

__all__ = [
    "HashRing",
    "LocalShard",
    "NoShardAvailableError",
    "ProcessShard",
    "ShardError",
    "ShardRouter",
    "make_shard_server",
    "shard_cache_dir",
    "shard_configs",
]


class ShardError(ServiceError):
    """A shard worker failed at the transport level (dead, unreachable,
    not in the ring): ``503`` + ``Retry-After`` upstream."""

    def __init__(self, message: str):
        super().__init__(message, status=503)


class NoShardAvailableError(ShardError):
    """Every live shard refused the request; nothing left to hand off to."""


def _point(text: str) -> int:
    """Stable 64-bit ring position of *text* (sha256 prefix, not hash())."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each member contributes ``replicas`` vnodes at positions derived
    from its *name* — deterministic across processes and restarts, so a
    respawned shard reclaims exactly the key slice it owned before.
    Lookups walk clockwise from the key's position; ``preference``
    yields every distinct member in that order, which is the router's
    handoff chain.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._positions: list[int] = []  # sorted vnode positions
        self._owners: list[str] = []  # owner name per position
        self._members: set[str] = set()

    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def add(self, name: str) -> None:
        if name in self._members:
            return
        self._members.add(name)
        for i in range(self.replicas):
            position = _point(f"{name}#{i}")
            at = bisect.bisect_left(self._positions, position)
            self._positions.insert(at, position)
            self._owners.insert(at, name)

    def remove(self, name: str) -> None:
        if name not in self._members:
            return
        self._members.discard(name)
        keep = [
            (position, owner)
            for position, owner in zip(self._positions, self._owners)
            if owner != name
        ]
        self._positions = [position for position, _ in keep]
        self._owners = [owner for _, owner in keep]

    def lookup(self, key: str) -> str | None:
        """The member owning *key*, or ``None`` on an empty ring."""
        if not self._positions:
            return None
        at = bisect.bisect_right(self._positions, _point(key))
        return self._owners[at % len(self._owners)]

    def preference(self, key: str) -> list[str]:
        """Every distinct member in clockwise order from *key*.

        The first entry is :meth:`lookup`'s answer; the rest are the
        handoff order when owners fail mid-request.
        """
        if not self._positions:
            return []
        start = bisect.bisect_right(self._positions, _point(key))
        seen: list[str] = []
        for offset in range(len(self._owners)):
            owner = self._owners[(start + offset) % len(self._owners)]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == len(self._members):
                    break
        return seen


# ----------------------------------------------------------------------
# Shard workers
# ----------------------------------------------------------------------

def shard_cache_dir(base: str | None, name: str) -> str | None:
    """The worker-private cache directory for shard *name*.

    Keyspace partitioning makes per-shard directories safe: two shards
    can never hold the same content address while both are live, so
    there is no cross-worker disk race to guard against.
    """
    if base is None:
        return None
    return os.path.join(base, f"shard-{name}")


def shard_configs(config: ServiceConfig, count: int) -> dict[str, ServiceConfig]:
    """Worker names ``s0..s{N-1}`` and each worker's config: *config*
    with a private cache shard and journal under its directories (the
    journal follows the same per-name layout and the same
    no-cross-worker-race argument)."""
    return {
        name: replace(
            config,
            cache_dir=shard_cache_dir(config.cache_dir, name),
            journal_dir=shard_cache_dir(config.journal_dir, name),
        )
        for name in (f"s{i}" for i in range(max(1, count)))
    }


class LocalShard(ServiceBackend):
    """An in-process shard: one dispatcher-driven allocation service.

    Used by the tests, the benches, and ``repro loadgen``'s direct mode
    — everything a worker process does, minus the process (fully
    deterministic, no sockets).  ``kill`` simulates worker death: every
    later call raises :class:`ShardError` until :meth:`respawn`.
    """

    def __init__(self, name: str, config: ServiceConfig | None = None):
        self.name = name
        self._config = config or ServiceConfig()
        super().__init__(AllocationService(self._config))
        self.service.start()
        self._dead = False

    # -- lifecycle -----------------------------------------------------
    def kill(self) -> None:
        self._dead = True
        self.service.stop()

    def kill9(self) -> None:
        """Hard kill: no drain, no journal sync — as SIGKILL would.

        In-process there is no way to *not* keep the page cache, so the
        observable difference from :meth:`kill` is that the service is
        abandoned without ``stop()`` (no journal close/sync)."""
        self._dead = True

    def close(self) -> None:
        self.kill()

    def respawn(self) -> None:
        """Fresh service over the same config (and thus cache dir).

        With a journal configured, the fresh service's ``start`` replays
        it — recovery is part of the spawn path, not a special case.
        The swap is ordered so concurrent pollers always see a usable
        service: the old one (intact until the swap) or the new one
        (only after recovery completed).
        """
        fresh = AllocationService(self._config)
        if not self._dead:
            self.service.stop()  # graceful: journal synced before replay
        fresh.start()  # replays the journal before anyone can poll it
        self.service = fresh
        self._dead = False

    def healthy(self) -> bool:
        return not self._dead

    def _live(self) -> AllocationService:
        if self._dead:
            raise ShardError(f"shard {self.name!r} is dead")
        return self.service

    # -- request surface: the service's, save for the trace ------------
    def trace(self, trace_id: str) -> dict:
        """Local shards share the frontend's span buffer (same process,
        same recorder) — return nothing so the merge never duplicates."""
        self._live()
        return {"trace_id": trace_id, "spans": []}


def _shard_worker_main(
    conn,
    host: str,
    config_kwargs: dict,
    name: str | None = None,
    telemetry: bool = False,
) -> None:
    """Child-process entry: serve one shard, report the bound port.

    Faults re-arm from ``REPRO_FAULTS`` at import, so a chaos plan armed
    in the parent injects inside the workers too.  *telemetry* mirrors
    the parent's :data:`~repro.obs.TRACER` enablement (the fork start
    method would inherit it, but spawn would not), and *name* labels
    the child's spans ``shard-<name>`` so the merged trace shows which
    worker ran what.  SIGTERM drains the worker before it exits.
    """
    from .server import make_server, serve_until_stopped

    if telemetry:
        TRACER.enable(process=f"shard-{name}" if name else "shard", bounded=True)
    server = make_server(host, 0, ServiceConfig(**config_kwargs))

    def _report_port() -> None:
        conn.send(server.server_address[1])
        conn.close()

    serve_until_stopped(server, _report_port)


class ProcessShard:
    """A shard worker in its own process, spoken to over HTTP.

    The child runs the stock :func:`~repro.service.server.make_server`
    on a free port and pipes the port number back; the parent talks to
    it through a :class:`~repro.service.client.ServiceClient`, which
    carries the PR-5 retry/backoff + Retry-After handling on every hop.
    Each call raises what a :class:`LocalShard` raises for the same
    worker answer (see :meth:`_call`).
    """

    def __init__(
        self,
        name: str,
        config: ServiceConfig | None = None,
        *,
        host: str = "127.0.0.1",
        boot_timeout_s: float = 30.0,
        client_retries: int = 2,
        client_timeout_s: float = 30.0,
    ):
        self.name = name
        self._config = config or ServiceConfig()
        self._host = host
        self._boot_timeout_s = boot_timeout_s
        self._client_retries = client_retries
        self._client_timeout_s = client_timeout_s
        self.process = None
        self.port: int | None = None
        self.client: ServiceClient | None = None
        self._boot()

    def _boot(self) -> None:
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                self._host,
                asdict(self._config),
                self.name,
                TRACER.enabled,
            ),
            name=f"repro-shard-{self.name}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        if not parent_conn.poll(self._boot_timeout_s):
            self.process.terminate()
            raise ShardError(
                f"shard {self.name!r} did not report a port within "
                f"{self._boot_timeout_s}s"
            )
        self.port = parent_conn.recv()
        parent_conn.close()
        self.client = ServiceClient(
            f"http://{self._host}:{self.port}",
            timeout=self._client_timeout_s,
            retries=self._client_retries,
        )

    # -- lifecycle -----------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def kill(self) -> None:
        """SIGTERM: the worker's graceful path (drain + journal sync)."""
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10)

    def kill9(self) -> None:
        """SIGKILL: no drain, no sync — the crash the journal exists for."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10)

    def close(self) -> None:
        self.kill()

    def respawn(self) -> None:
        """Replace the worker process; same name, same cache shard.

        The fresh worker's service ``start`` replays its journal (when
        one is configured), so recovery rides the normal boot path.
        """
        self.kill()
        self._boot()

    def healthy(self) -> bool:
        if self.process is None or not self.process.is_alive():
            return False
        try:
            return bool(self.client.health().get("ok"))
        except Exception:
            return False

    # -- request surface ----------------------------------------------
    def _call(self, fn, *args, **kwargs):
        """One call to the worker; its error answers raised as the
        worker's own service raises them in-process."""
        try:
            return fn(*args, **kwargs)
        except ServiceError as exc:
            if exc.status is None:
                # No HTTP status = the transport itself failed — the
                # worker is gone, not the request.
                raise ShardError(f"shard {self.name!r}: {exc}") from exc
            if exc.draining:
                raise ServiceDrainingError() from exc
            if exc.status in RETRYABLE_STATUSES:
                raise ServiceOverloadError(0, 0) from exc
            if exc.status == 400:
                raise RequestError(str(exc)) from exc
            raise

    def submit(self, body: dict, trace: TraceContext | None = None) -> dict:
        return self._call(self.client.submit_request, body, trace=trace)

    def poll(self, job_id: str, wait_s: float = 0.0) -> dict:
        return self._call(self.client.poll, job_id, wait_s=wait_s)

    def result(self, job_id: str) -> bytes:
        return self._call(self.client.result, job_id)

    def stats(self) -> dict:
        return self._call(self.client.stats)

    def metrics_samples(self) -> list:
        """The worker's ``/v1/metrics?format=json`` samples, as
        ``[(labels, sample), ...]`` ready for router relabeling."""
        payload = self._call(self.client.metrics_json)
        return [
            (entry.get("labels") or {}, entry.get("sample") or {})
            for entry in payload.get("samples", ())
        ]

    def trace(self, trace_id: str) -> dict:
        """The worker process's span buffer for *trace_id*."""
        return self._call(self.client.trace, trace_id)

    def drain(self, name: str | None = None) -> dict:
        """``POST /v1/admin/drain`` on the worker; poll until drained."""
        return self._call(self.client.drain)


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------

#: Request bodies whose content address the router remembers, least
#: recently used first out.  An entry holds a 32-byte body digest and a
#: 64-character key, never IR text: 262 bytes each under tracemalloc, so
#: a full memo takes 1.1 MB, under 1% of a 2-shard fleet's peak resident
#: set.  The bound matches the shards' default in-memory artifact cache
#: (4,096 entries), so a body whose artifact a shard can still serve from
#: memory resolves at the router without a normalize.
ROUTE_MEMO_ENTRIES = 4096


class ShardRouter:
    """Key-affine request routing over a fleet of shard workers.

    A request's content address picks the shard, so identical concurrent
    submissions — from any number of clients — converge on one shard and
    coalesce there (the exactly-once guarantee survives sharding).  The
    router normalizes a body only the first time it sees it: a repeated
    body resolves its address from a bounded memo (see
    :meth:`content_address`).  The body goes to the worker as received,
    and the worker normalizes it for its own cache.  Shard failures walk
    the ring's preference order; a shard whose per-shard circuit breaker
    trips is evicted from the ring and respawned after the breaker's
    cooldown.

    ``health_interval_s=None`` (the default) leaves health checking to
    explicit :meth:`check_health` calls — the deterministic mode the
    tests drive; :meth:`start_health_loop` runs it on a timer thread.

    The router answers the request surface its shards answer (see
    :mod:`repro.service.server`), so one server class mounts either.
    """

    #: The span the handler opens around a submit at the frontend.
    span_name = "frontend.request"

    def __init__(
        self,
        shards,
        *,
        replicas: int = 64,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.5,
        auto_respawn: bool = True,
    ):
        self.ring = HashRing(replicas)
        self.shards: dict[str, object] = {}
        self.breakers: dict[str, _CircuitBreaker] = {}
        self._evicted: dict[str, object] = {}
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self.auto_respawn = auto_respawn
        self._lock = threading.RLock()
        self._health_thread: threading.Thread | None = None
        self._health_stop = threading.Event()
        self.counters = {
            "requests": 0,
            "handoffs": 0,
            "evicted": 0,
            "respawned": 0,
            "health_checks": 0,
            "no_shard": 0,
            "drains": 0,
            "drain_handoffs": 0,
            "rolling_restarts": 0,
            "memo_hits": 0,
            "memo_misses": 0,
        }
        #: Body digest -> content address, most recently used last.
        self._memo: OrderedDict[bytes, str] = OrderedDict()
        #: Shards currently draining: out of the ring (no new keys) but
        #: still in :attr:`shards` so polls for in-flight jobs resolve.
        self._draining: set[str] = set()
        #: Requests routed per shard name (deterministic for a fixed
        #: request sequence — the loadgen shard-balance report).
        self.routed: dict[str, int] = {}
        #: Monotonic clock at (re)spawn per shard — the uptime base.
        self.started: dict[str, float] = {}
        #: Wall clock of the last health probe per shard.
        self.last_health: dict[str, float] = {}
        #: Routing-layer SLO: availability of submits, routing latency,
        #: goodput = landed on the ring's first choice (no handoff).
        self.slo = SLOTracker()
        self.route_hist = StreamingHistogram()
        for shard in shards:
            self.add_shard(shard)

    # -- membership ----------------------------------------------------
    def add_shard(self, shard) -> None:
        with self._lock:
            if shard.name in self.shards:
                raise ValueError(f"duplicate shard name {shard.name!r}")
            self.shards[shard.name] = shard
            self.breakers[shard.name] = _CircuitBreaker(
                self._breaker_threshold, self._breaker_cooldown_s
            )
            self.routed.setdefault(shard.name, 0)
            self.started[shard.name] = time.monotonic()
            self.ring.add(shard.name)

    def evict(self, name: str) -> None:
        """Drop *name* from the ring; its keys rehash to the survivors."""
        with self._lock:
            shard = self.shards.pop(name, None)
            if shard is None:
                return
            self.ring.remove(name)
            self._draining.discard(name)
            self._evicted[name] = shard
            self.counters["evicted"] += 1
        TRACER.event("router.evict", shard=name)

    def respawn(self, name: str) -> None:
        """Restart an evicted worker and hand its key slice back."""
        with self._lock:
            shard = self._evicted.pop(name, None)
            if shard is None:
                return
            shard.respawn()
            self.shards[name] = shard
            self.breakers[name] = _CircuitBreaker(
                self._breaker_threshold, self._breaker_cooldown_s
            )
            self.ring.add(name)
            self.started[name] = time.monotonic()
            self.counters["respawned"] += 1
        TRACER.event("router.respawn", shard=name)

    # -- lifecycle: drain / rolling restart ---------------------------
    def drain(self, name: str | None = None) -> dict:
        """Put shard *name* in draining mode and take it off the ring.

        New keys route to the survivors immediately; the shard stays in
        :attr:`shards` so polls/results for its in-flight jobs keep
        resolving until it quiesces.  Returns the shard's lifecycle view
        (call again to poll ``drained``).  Without a *name* the router
        cannot guess which worker to take down: :class:`RequestError`
        with the fleet roster.
        """
        if name is None:
            raise RequestError(
                "drain which shard? pass ?shard=NAME, one of "
                f"{self.ring.members}"
            )
        with self._lock:
            shard = self.shards.get(name)
            if shard is None:
                raise ShardError(f"shard {name!r} is not in the fleet")
            first = name not in self._draining
            if first:
                self._draining.add(name)
                self.ring.remove(name)
                self.counters["drains"] += 1
        if first:
            TRACER.event("router.drain", shard=name)
        return shard.drain()

    def rejoin(self, name: str) -> None:
        """Put a drained (and usually restarted) shard back on the ring."""
        with self._lock:
            if name not in self.shards:
                raise ShardError(f"shard {name!r} is not in the fleet")
            self._draining.discard(name)
            self.ring.add(name)
            self.breakers[name] = _CircuitBreaker(
                self._breaker_threshold, self._breaker_cooldown_s
            )
            self.started[name] = time.monotonic()
        TRACER.event("router.rejoin", shard=name)

    def rolling_restart(
        self, *, wait_timeout_s: float = 30.0, poll_s: float = 0.02
    ) -> dict:
        """Drain → restart → rejoin every shard, one at a time.

        At every instant all but one shard serve traffic, and the one
        being restarted first finishes everything it accepted — so a
        rolling restart under load loses zero goodput (the chaos suite
        gates this).  Returns a report with per-shard outcomes.
        """
        report = {"restarted": [], "timed_out": [], "order": []}
        with self._lock:
            names = sorted(self.shards)
        for name in names:
            report["order"].append(name)
            try:
                lifecycle = self.drain(name)
            except ServiceError as exc:
                report["timed_out"].append({"shard": name, "error": str(exc)})
                continue
            deadline = time.monotonic() + wait_timeout_s
            while not lifecycle.get("drained"):
                if time.monotonic() >= deadline:
                    break
                time.sleep(poll_s)
                try:
                    lifecycle = self.drain(name)  # idempotent poll
                except ServiceError:
                    break
            with self._lock:
                shard = self.shards.get(name)
            if shard is None:  # evicted mid-drain by the health loop
                report["timed_out"].append({"shard": name, "error": "evicted"})
                continue
            shard.respawn()
            self.rejoin(name)
            with self._lock:
                self.counters["respawned"] += 1
            report["restarted"].append(name)
        with self._lock:
            self.counters["rolling_restarts"] += 1
        TRACER.event("router.rolling_restart", **{
            "restarted": len(report["restarted"]),
            "timed_out": len(report["timed_out"]),
        })
        return report

    def _shard_failed(self, name: str) -> None:
        with self._lock:
            breaker = self.breakers.get(name)
            if breaker is None:
                return
            breaker.record(ok=False)
            if not breaker.allow():
                self.evict(name)

    # -- health --------------------------------------------------------
    def check_health(self) -> dict:
        """Probe every live shard; evict the broken, respawn the cooled.

        The ``shard.worker`` fault site hooks in here: ``death`` kills
        the worker outright (the probe then finds the corpse), ``kill9``
        hard-kills it with no drain or journal sync (recovery must come
        from the write-ahead journal), and ``unhealthy`` fails the probe
        without killing — the chaos shapes the eviction/respawn and
        durability machinery must absorb.
        """
        report = {"healthy": [], "evicted": [], "respawned": []}
        with self._lock:
            live = list(self.shards.items())
        self.counters["health_checks"] += 1
        for name, shard in live:
            forced_unhealthy = False
            if FAULTS.enabled:
                point = FAULTS.fire("shard.worker", label=name)
                if point is not None:
                    if point.mode == "death":
                        shard.kill()
                    elif point.mode == "kill9":
                        # SIGKILL: no drain, no journal sync — recovery
                        # must come from the write-ahead journal alone.
                        shard.kill9()
                    elif point.mode == "unhealthy":
                        forced_unhealthy = True
            ok = not forced_unhealthy and shard.healthy()
            self.last_health[name] = time.time()
            breaker = self.breakers[name]
            breaker.record(ok)
            if ok:
                report["healthy"].append(name)
            elif not breaker.allow():
                self.evict(name)
                report["evicted"].append(name)
        if self.auto_respawn:
            for name in sorted(self._evicted):
                shard = self._evicted[name]
                if shard.healthy() or self._cooldown_elapsed(name):
                    self.respawn(name)
                    report["respawned"].append(name)
        return report

    def _cooldown_elapsed(self, name: str) -> bool:
        breaker = self.breakers.get(name)
        # The eviction-time breaker is replaced on respawn; half-open
        # means its cooldown has elapsed — time for the trial restart.
        return breaker is None or breaker.state != "open"

    def start_health_loop(self, interval_s: float = 1.0) -> None:
        if self._health_thread is not None:
            return
        self._health_stop.clear()

        def loop() -> None:
            while not self._health_stop.wait(interval_s):
                try:
                    self.check_health()
                except Exception:
                    # The loop must outlive any one probe failure.
                    pass

        self._health_thread = threading.Thread(
            target=loop, name="repro-shard-health", daemon=True
        )
        self._health_thread.start()

    def stop_health_loop(self) -> None:
        if self._health_thread is None:
            return
        self._health_stop.set()
        self._health_thread.join(timeout=5)
        self._health_thread = None

    def drain_wait(self, timeout: float = 30.0) -> bool:
        """The router holds no accepted work of its own: each worker
        drains itself when :meth:`close` stops it (a process worker on
        SIGTERM), so there is nothing to wait for here."""
        return True

    def close(self) -> None:
        self.stop_health_loop()
        with self._lock:
            shards = list(self.shards.values()) + list(self._evicted.values())
            self.shards.clear()
            self._evicted.clear()
        for shard in shards:
            try:
                shard.close()
            except Exception:
                pass

    # -- routing -------------------------------------------------------
    def content_address(self, request: dict) -> str:
        """The cache key of *request*, normalizing it only on a memo miss.

        The memo is keyed by the sha256 of the body's canonical JSON, so
        a repeated body — whatever its key order — skips the parse, print
        and hash of :func:`~repro.service.artifact.normalize_request`.
        A body that fails to normalize raises :class:`RequestError` and
        is never remembered.
        """
        text = canonical_json(request)
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        with self._lock:
            key = self._memo.get(digest)
            if key is not None:
                self._memo.move_to_end(digest)
                self.counters["memo_hits"] += 1
                return key
            self.counters["memo_misses"] += 1
        key = normalize_request(request)["key"]
        with self._lock:
            self._memo[digest] = key
            if len(self._memo) > ROUTE_MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return key

    def submit(
        self, request: dict, trace: TraceContext | None = None
    ) -> dict:
        """Resolve the content address, route by it, forward the body as
        received, and qualify the returned job id.

        Failures walk the preference chain (``handoffs``); overload and
        bad requests propagate — handing a shed request to another
        shard would trade cache affinity for queue depth, and a bad
        request fails identically everywhere.

        With telemetry on, the walk runs inside a ``route`` span under
        *trace* (a fresh root when the caller passed none — the loadgen
        direct mode), and the forwarded shard sees the span's child
        context; handoffs and shard failures become span events.  The
        router-level :class:`~repro.obs.telemetry.SLOTracker` counts a
        submit *good* only when it landed on the ring's first choice.
        """
        key = self.content_address(request)
        with self._lock:
            self.counters["requests"] += 1
            chain = self.ring.preference(key)
        owner = chain[0] if chain else None
        start = time.perf_counter()
        status: dict | None = None
        ok = False
        try:
            with TRACER.activate(trace), TRACER.span(
                "route", category="router", key=key[:12]
            ) as span:
                status = self._route(request, key, chain, span.ctx)
            ok = True
            return status
        finally:
            elapsed = time.perf_counter() - start
            self.route_hist.observe(elapsed)
            self.slo.record(
                ok=ok,
                latency_s=elapsed,
                good=ok and status is not None and status.get("shard") == owner,
            )

    def _route(self, body: dict, key: str, chain: list, ctx) -> dict:
        """Walk the preference chain under the ``route`` span's context.

        Every shard kind raises alike, so each outcome has one branch: a
        bad request or a shed propagates (handing it to another shard
        would fail identically, or trade cache affinity for queue
        depth); a draining shard hands the key on without touching its
        breaker; any other failure counts against the breaker and fails
        over.
        """
        if chain and FAULTS.enabled:
            point = FAULTS.fire("shard.route", label=key)
            if point is not None and point.mode == "handoff" and len(chain) > 1:
                chain = chain[1:]
                with self._lock:
                    self.counters["handoffs"] += 1
                TRACER.event("router.fault_handoff", ctx=ctx, shard=chain[0])
        last_error: Exception | None = None
        for hop, name in enumerate(chain):
            with self._lock:
                shard = self.shards.get(name)
            if shard is None:
                continue
            if hop > 0:
                with self._lock:
                    self.counters["handoffs"] += 1
                TRACER.event("router.handoff", ctx=ctx, shard=name, hop=hop)
            try:
                status = shard.submit(body, trace=ctx)
            except ServiceDrainingError as exc:
                # A draining shard is healthy, just leaving.
                with self._lock:
                    self.counters["drain_handoffs"] += 1
                TRACER.event("router.drain_handoff", ctx=ctx, shard=name)
                last_error = exc
                continue
            except (RequestError, ServiceOverloadError):
                raise
            except ServiceError as exc:
                self._shard_failed(name)
                TRACER.event(
                    "router.shard_failed", ctx=ctx, shard=name,
                    error=str(exc)[:160],
                )
                last_error = exc
                continue
            with self._lock:
                self.breakers[name].record(ok=True)
                self.routed[name] = self.routed.get(name, 0) + 1
            return self._qualify(status, name)
        with self._lock:
            self.counters["no_shard"] += 1
        raise NoShardAvailableError(
            f"no live shard accepted key {key[:12]}…"
            + (f" (last error: {last_error})" if last_error else "")
        )

    @staticmethod
    def _qualify(status: dict, name: str) -> dict:
        status = dict(status)
        status["job_id"] = f"{status['job_id']}@{name}"
        status["shard"] = name
        return status

    def _resolve(self, job_id: str):
        if "@" not in job_id:
            raise RequestError(
                f"job id {job_id!r} is not shard-qualified (want <id>@<shard>)"
            )
        local_id, name = job_id.rsplit("@", 1)
        with self._lock:
            shard = self.shards.get(name)
        if shard is None:
            raise ShardError(f"shard {name!r} is not in the ring")
        return shard, local_id, name

    def poll(self, job_id: str, wait_s: float = 0.0) -> dict:
        """The job's status; *wait_s* long-polls the owning shard."""
        shard, local_id, name = self._resolve(job_id)
        return self._qualify(shard.poll(local_id, wait_s=wait_s), name)

    def wait(self, job_id: str, timeout: float = 30.0) -> dict:
        """Long-poll the owning shard until the job finishes or *timeout*
        runs out, and return its last status — one call, unless the job
        outlasts the hold one hop allows (a worker's client timeout)."""
        deadline = time.monotonic() + timeout
        status = self.poll(job_id, wait_s=timeout)
        while status["status"] not in ("done", "failed"):
            left = deadline - time.monotonic()
            if left <= 0:
                break
            status = self.poll(job_id, wait_s=left)
        return status

    def result(self, job_id: str) -> bytes:
        """The artifact bytes in one shard call; a job that is not done
        raises :class:`ServiceError` (``202`` pending, ``500`` failed)
        whose payload is its shard-qualified status."""
        shard, local_id, name = self._resolve(job_id)
        try:
            return shard.result(local_id)
        except ServiceError as exc:
            if exc.payload is not None and "job_id" in exc.payload:
                exc.payload = self._qualify(exc.payload, name)
            raise

    # -- stats ---------------------------------------------------------
    def health(self) -> dict:
        return {"ok": True, "shards": len(self.ring)}

    def stats(self) -> dict:
        """Fleet view: per-shard stats plus cross-shard aggregates.

        ``counters`` and ``incremental`` sum the live shards' counters
        (same keys as the single-process ``/v1/stats``), so dashboards
        built against one server read the fleet unchanged; ``router``
        carries the routing/eviction side.
        """
        with self._lock:
            live = dict(self.shards)
            now = time.monotonic()
            router = {
                "counters": dict(self.counters),
                "routed": dict(self.routed),
                "ring": {
                    "members": self.ring.members,
                    "replicas": self.ring.replicas,
                },
                "evicted": sorted(self._evicted),
                "draining": sorted(self._draining),
                "breakers": {
                    name: breaker.state
                    for name, breaker in self.breakers.items()
                },
                "shards": {
                    name: {
                        "uptime_s": round(
                            now - self.started.get(name, now), 3
                        ),
                        "last_health_check": self.last_health.get(name),
                        # Worker pid (None for in-process shards): the
                        # CI kill-restart gate targets its SIGKILL here.
                        "pid": getattr(live[name], "pid", None),
                    }
                    for name in sorted(live)
                },
                "slo": self.slo.snapshot(),
            }
        shard_stats: dict[str, dict] = {}
        for name, shard in sorted(live.items()):
            try:
                shard_stats[name] = shard.stats()
            except ServiceError as exc:
                shard_stats[name] = {"error": str(exc)}
        counters: dict[str, int] = {}
        incremental: dict[str, int] = {}
        queue_depth = 0
        for stats in shard_stats.values():
            for name, value in stats.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in stats.get("incremental", {}).items():
                incremental[name] = incremental.get(name, 0) + value
            queue_depth += stats.get("queue_depth", 0)
        return {
            "counters": counters,
            "incremental": incremental,
            "queue_depth": queue_depth,
            "shards": shard_stats,
            "router": router,
        }

    # -- telemetry -----------------------------------------------------
    def metrics_samples(self) -> list:
        """``[(labels, sample), ...]`` for the fleet exposition: the
        router's own counters/SLO unlabeled, per-shard routed counts and
        every live shard's registry under a ``shard`` label.  A shard
        whose fetch fails is skipped — a scrape must never take the
        frontend down with a worker.
        """
        with self._lock:
            counters = {
                f"router.{name}": float(value)
                for name, value in self.counters.items()
            }
            routed = dict(self.routed)
            live = sorted(self.shards.items())
            evicted = len(self._evicted)
        own = {
            "counters": counters,
            "gauges": {
                "router.shards.live": float(len(live)),
                "router.shards.evicted": float(evicted),
            },
            "histograms": {"router.route_s": self.route_hist.summary()},
        }
        samples: list = [({}, own)]
        for name, count in sorted(routed.items()):
            samples.append(
                ({"shard": name}, {"counters": {"router.routed": float(count)}})
            )
        for name, shard in live:
            try:
                shard_samples = shard.metrics_samples()
            except Exception:
                continue
            for labels, sample in shard_samples:
                samples.append(({**(labels or {}), "shard": name}, sample))
        return samples

    def trace(self, trace_id: str) -> dict:
        """Merge the frontend-process span buffer (frontend + router +
        any :class:`LocalShard` spans) with every live worker's buffer
        for *trace_id* — the payload ``repro trace fetch`` renders."""
        spans = TRACER.spans_for(trace_id)
        with self._lock:
            live = sorted(self.shards.items())
        for name, shard in live:
            try:
                spans.extend(shard.trace(trace_id).get("spans") or ())
            except Exception:
                continue
        return {"trace_id": trace_id, "spans": spans}


def make_shard_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    shards: int = 3,
    config: ServiceConfig | None = None,
    replicas: int = 64,
    health_interval_s: float | None = 1.0,
    router: ShardRouter | None = None,
) -> ServiceServer:
    """Boot a worker fleet and bind the front end (``repro serve --shards``).

    Workers are named ``s0..s{N-1}``, each a :class:`ProcessShard` over
    its :func:`shard_configs` config.  Pass a pre-built *router* to
    serve custom shard objects (the tests mount :class:`LocalShard`
    fleets this way).  ``port=0`` binds a free port; stop it with
    :func:`~repro.service.server.shutdown_server`.
    """
    base = config or ServiceConfig()
    if router is None:
        router = ShardRouter(
            [
                ProcessShard(name, worker_config, host=host)
                for name, worker_config in shard_configs(base, shards).items()
            ],
            replicas=replicas,
        )
    if health_interval_s is not None:
        router.start_health_loop(health_interval_s)
    return ServiceServer((host, port), router, base.max_concurrent_requests)
