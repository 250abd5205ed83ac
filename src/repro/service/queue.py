"""The allocation service core: job lifecycle, dispatch, degradation.

Request path (cache → queue → degrade → execute):

1. **submit** — the request is validated, content-addressed
   (:func:`~repro.service.artifact.request_key`), and probed against the
   :class:`~repro.service.cache.AllocationCache`.  A hit resolves the
   job immediately with the stored bytes.  A duplicate of an in-flight
   request *coalesces* onto the existing job — concurrent identical
   submissions execute the allocation exactly once.
2. **dispatch** — the dispatcher takes one queued job at a time, in
   submission order, and runs it to a terminal state or a requeue before
   it takes the next (``repro serve --shards N`` is how a fleet uses
   more cores).
3. **degrade** — when the job starts, its remaining deadline budget
   picks the tier actually executed
   (:func:`~repro.service.degrade.select_tier` down the
   ``bpc → bcr → non`` ladder); the cache is probed again under that
   tier's key before any work is spent.
4. **execute** — the job runs inline on the dispatcher thread.

A job's clock starts with its submit-time cache probe, and its stages
tile its latency: ``cache`` (every probe), ``queue_wait`` (the rest of
the time up to its last dispatch), ``alloc`` and ``verify`` add up to
``finished_mono - submitted_mono``.

Resilience (PR 5, see ``docs/RESILIENCE.md``):

* every artifact passes the independent
  :class:`~repro.resilience.verifier.AllocationVerifier` per the
  configured mode before it is cached or served; a cache entry that
  fails is **quarantined and recomputed**, a fresh computation that
  fails is treated as a job failure — *fail-stop or correct*, never
  silent corruption;
* a failing job gets bounded retries with exponential backoff
  (``job_retries`` × ``job_backoff_s``); when the budget is exhausted
  the job lands in a bounded **dead-letter record** surfaced through
  :meth:`AllocationService.stats`;
* finished jobs are retained under a bounded policy
  (``job_retention`` max entries / optional ``job_ttl_s``) instead of
  forever, with evictions counted;
* a full queue sheds load: :meth:`AllocationService.submit` raises
  :class:`ServiceOverloadError`, which the HTTP layer turns into
  ``503`` + ``Retry-After``;
* seeded fault points (:mod:`repro.resilience.faults`) cover an
  execution stall or error and duplicate dispatch; duplicate deliveries
  are absorbed idempotently.

Every stage is traced through :data:`repro.obs.TRACER`: per-request
spans, plus events on the job's trace for degradations, quarantines,
verification failures, retries and dead-letter drops — free when the
recorder is off.  The always-on :attr:`AllocationService.counters` and
the cache's own counters back the server's ``/v1/stats`` and
``/v1/metrics`` endpoints.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..obs import TRACER, TraceContext
from ..obs.telemetry import EVENTS, SLOTracker, StreamingHistogram
from ..resilience import AllocationVerifier, FAULTS, InjectedFault
from ..sim.ooo import MACHINE_DEFAULT
from .artifact import (
    artifact_bytes,
    build_artifact,
    build_module_artifact,
    normalize_request,
    request_key,
)
from .cache import AllocationCache
from .degrade import TierCostModel, select_tier
from .durability import DEAD_LETTER_LIMIT, JobJournal


class ServiceOverloadError(RuntimeError):
    """The queue is full; the request was shed, not enqueued."""

    def __init__(self, depth: int, limit: int, retry_after_s: float = 1.0):
        super().__init__(
            f"queue depth {depth} at limit {limit}; request shed"
        )
        self.retry_after_s = retry_after_s


class ServiceDrainingError(ServiceOverloadError):
    """The service is draining; new work is rejected, in-flight finishes.

    A subclass of :class:`ServiceOverloadError` so the HTTP layer's
    existing 503 + ``Retry-After`` path applies unchanged — but the
    router treats it as a *handoff* signal (route to another shard, do
    not trip the breaker), and the client does not retry the same
    endpoint.
    """

    def __init__(self, retry_after_s: float = 1.0):
        RuntimeError.__init__(
            self, "service is draining; new work rejected, retry elsewhere"
        )
        self.retry_after_s = retry_after_s


class _FragmentView:
    """Fragment-store adapter over a service's verified cache probe.

    ``get`` routes through :meth:`AllocationService._cache_lookup`, so a
    fragment read from disk is verified (and quarantined on failure) by
    the same policy whole artifacts get; ``put`` is a plain insert.
    """

    def __init__(self, service: "AllocationService"):
        self._service = service

    def get(self, key: str) -> bytes | None:
        return self._service._cache_lookup(key, None)

    def put(self, key: str, data: bytes) -> None:
        self._service.cache.put(key, data)


def _transient(exc: Exception) -> bool:
    """Whether a failed execution is worth a retry: injected faults, I/O
    errors and timeouts are; anything else (bad IR, an infeasible
    register file) fails identically every attempt."""
    return isinstance(exc, (InjectedFault, OSError, TimeoutError))


@dataclass
class ServiceConfig:
    """Ops knobs of one :class:`AllocationService` instance."""

    #: Artifact cache directory (None = memory only).
    cache_dir: str | None = None
    #: Verifier mode: ``strict`` | ``cached-only`` | ``off``
    #: (see :mod:`repro.resilience.verifier`).
    verify: str = "cached-only"
    #: Whole-job retry budget: a job whose execution fails (a transient
    #: exception or a verification failure) is requeued up to this many
    #: times before it dead-letters.
    job_retries: int = 2
    #: Exponential per-job backoff: ``job_backoff_s * 2**(attempt-1)``
    #: seconds before a requeue (capped at 1 s).
    job_backoff_s: float = 0.02
    #: Finished (done/failed) jobs retained for polling; older ones are
    #: evicted oldest-first.
    job_retention: int = 1024
    #: Optional TTL for finished jobs (seconds); ``None`` = count-only.
    job_ttl_s: float | None = None
    #: Queue depth at which :meth:`AllocationService.submit` sheds load.
    max_queue_depth: int = 1024
    #: Simultaneous HTTP handlers allowed before the server sheds with
    #: ``429`` (enforced by :class:`repro.service.server.ServiceServer`).
    max_concurrent_requests: int = 32
    #: Write-ahead job journal directory (None = no durability): every
    #: accepted cache-miss job is journaled at submit and at its
    #: terminal state; :meth:`AllocationService.recover` replays
    #: non-terminal jobs after a crash (see ``repro.service.durability``).
    journal_dir: str | None = None
    #: fsync(2) the journal after every frame (survives power loss, not
    #: just process death) — off by default, it costs a disk round-trip.
    journal_fsync: bool = False


@dataclass
class Job:
    """One allocation request moving through the service."""

    job_id: str
    key: str
    ir: str
    file_spec: dict
    requested_method: str
    flags: dict
    #: ``function`` (the IR parses to one function) or ``module``
    #: (several); module jobs take the incremental per-fragment path.
    kind: str = "function"
    #: Normalized cycle-model spec; ``None`` means the in-order default
    #: (and contributes nothing to the content address).
    machine: dict | None = None
    deadline_s: float | None = None
    status: str = "queued"  # queued | running | done | failed
    cache: str = "miss"  # miss | hit | coalesced-onto (per-submit view)
    served_method: str | None = None
    degraded: bool = False
    error: str | None = None
    artifact: bytes | None = None
    coalesced: int = 0
    attempts: int = 0
    #: Set when the failure exhausted its retry budget and landed in the
    #: dead-letter record (journaled durably when a journal is on).
    dead_lettered: bool = False
    #: The job's clock: :meth:`AllocationService.submit` starts it with
    #: the submit-time cache probe; latency runs to ``finished_mono``.
    submitted_mono: float = field(default_factory=time.monotonic)
    finished_mono: float | None = None
    #: The open ``service.job`` span (begun at submit, ended when the
    #: job finishes) and its context, which parents the job's events
    #: and worker spans.  Never part of the cache key.
    span: object = field(default=None, repr=False)
    trace: TraceContext | None = field(default=None, repr=False)
    #: Always-on per-stage wall seconds on the job's clock: ``cache``
    #: (every probe), ``queue_wait`` (submit to the last dispatch, less
    #: the probes), and the served attempt's ``alloc`` and ``verify``.
    stages: dict = field(default_factory=dict)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def function_name(self) -> str:
        """The name in the (first) ``func @name {`` header, or ``?``."""
        head = self.ir.split("{", 1)[0]
        return head.partition("func @")[2].strip() or "?"

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def remaining_s(self) -> float | None:
        if self.deadline_s is None:
            return None
        return self.deadline_s - (time.monotonic() - self.submitted_mono)

    def resolve(self, data: bytes, served: str, degraded: bool) -> None:
        self.artifact = data
        self.served_method = served
        self.degraded = degraded
        self.status = "done"
        self.finished_mono = time.monotonic()
        self._done.set()

    def fail(self, error: str) -> None:
        self.error = error
        self.status = "failed"
        self.finished_mono = time.monotonic()
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def describe(self) -> dict:
        """Status view (everything but the artifact bytes)."""
        return {
            "job_id": self.job_id,
            "key": self.key,
            "status": self.status,
            "cache": self.cache,
            "function": self.function_name,
            "machine": (self.machine or {}).get("model", "dsa"),
            "requested_method": self.requested_method,
            "served_method": self.served_method,
            "degraded": self.degraded,
            "coalesced": self.coalesced,
            "attempts": self.attempts,
            "dead_lettered": self.dead_lettered,
            "error": self.error,
            # list() snapshots the items in one step: the dispatcher
            # thread may add a stage while a submitter describes the job.
            "stages": {k: round(v, 6) for k, v in list(self.stages.items())},
            "trace": self.trace.trace_id if self.trace else None,
        }


class AllocationService:
    """Cache + queue + one-job dispatcher behind ``repro serve``.

    Thread-safe.  Call :meth:`start` to run the dispatcher on a
    background thread, or drive it manually with :meth:`process_once`
    (the tests do) for deterministic stepping.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.cache = AllocationCache(self.config.cache_dir)
        self.verifier = AllocationVerifier(self.config.verify)
        self.cost_model = TierCostModel()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._queue: _queue.Queue = _queue.Queue()
        self.dead_letter: list[dict] = []
        # RLock: submit() creates jobs while already holding the lock.
        self._lock = threading.RLock()
        self._counter = 0
        #: Finished jobs (tombstones restored by :meth:`recover` too) in
        #: finish order, so retention evicts from the front in O(1).
        self._finished: OrderedDict[str, Job] = OrderedDict()
        self._thread: threading.Thread | None = None
        self._stopping = False
        #: Recovered job ids that coalesced onto another recovered job;
        #: polls for the original id resolve to the surviving job.
        self._aliases: dict[str, str] = {}
        #: Draining: finish in-flight work, reject new submissions with
        #: :class:`ServiceDrainingError` (503 + Retry-After upstream).
        self.draining = False
        self.journal: JobJournal | None = None
        if self.config.journal_dir:
            self.journal = JobJournal(
                self.config.journal_dir, fsync=self.config.journal_fsync
            )
        self._recovered = False
        self.counters = {
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "coalesced": 0,
            "executed": 0,
            "failed": 0,
            "degraded": 0,
            "tier_bpc": 0,
            "tier_bcr": 0,
            "tier_non": 0,
            "verified": 0,
            "verify_failed": 0,
            "retried": 0,
            "dead_lettered": 0,
            "jobs_evicted": 0,
            "shed": 0,
            "duplicate_deliveries": 0,
            "drained_rejects": 0,
            "recovered_jobs": 0,
        }
        #: Incremental (module) execution counters: the reuse/execute
        #: split that proves only changed functions re-ran.
        self.incremental = {
            "modules": 0,
            "functions_total": 0,
            "functions_reused": 0,
            "functions_executed": 0,
        }
        #: Always-on fleet telemetry (cheap O(1) updates, like the
        #: counters above): SLO tracking surfaced in ``/v1/stats`` and
        #: per-stage streaming histograms surfaced in ``/v1/metrics``.
        self.slo = SLOTracker()
        self.stage_hist: dict[str, StreamingHistogram] = {}
        self.latency_hist = StreamingHistogram()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self.recover()
        self._stopping = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stopping = True
            self._queue.put(None)  # wake the dispatcher
            self._thread.join(timeout=10)
            self._thread = None
        if self.journal is not None:
            try:
                self.journal.sync()
            except OSError:
                pass
            self.journal.close()

    def _dispatch_loop(self) -> None:
        while not self._stopping:
            self.process_once(block=True)

    # ------------------------------------------------------------------
    # Durability: recovery replay (see repro.service.durability)
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Replay the journal and re-enqueue non-terminal jobs.

        Idempotent by construction: every replayed job re-submits under
        its pre-crash id, and because results are content-addressed a
        job whose artifact already reached the cache resolves instantly
        and byte-identically.  Replayed jobs run at their requested tier
        — the original deadline died with its client, so recovery never
        degrades below what was asked for.

        Safe to call repeatedly; only the first call on a journaled
        service does work (``start`` calls it automatically).
        """
        report = {"recovered": 0, "restored": 0, "dead_letter": 0,
                  "truncated": 0, "quarantined": 0}
        if self.journal is None or self._recovered:
            return report
        self._recovered = True
        replay = self.journal.replay()
        report["truncated"] = replay.truncated
        report["quarantined"] = replay.quarantined
        report["dead_letter"] = len(replay.dead_letter)
        with self._lock:
            # Restore the durable dead-letter list (oldest first, bounded).
            merged = replay.dead_letter + self.dead_letter
            self.dead_letter = merged[-DEAD_LETTER_LIMIT:]
        for record in replay.pending:
            body = {
                "ir": record["ir"],
                "file": record["file"],
                "method": record["method"],
                "flags": record.get("flags") or {},
            }
            if record.get("machine"):
                body["machine"] = record["machine"]
            rec_id = record["job_id"]
            try:
                job = self.submit(body, job_id=rec_id)
            except ServiceOverloadError:
                # Queue full mid-recovery: the record stays pending in
                # the journal; the next restart retries it.
                continue
            report["recovered"] += 1
            with self._lock:
                self.counters["recovered_jobs"] += 1
            if job.finished:
                # Resolved from cache during re-submit — accepted and
                # terminal in one step, nothing left pending.
                self.journal.drop_pending(rec_id)
            elif job.job_id != rec_id:
                # Coalesced onto another recovered job with the same
                # content address; alias the old id so polls still work.
                with self._lock:
                    self._aliases[rec_id] = job.job_id
                self.journal.drop_pending(rec_id)
        report["restored"] = self._restore_tombstones(replay.finished)
        # Checkpoint the recovered state so the next restart replays the
        # (small) live set, not the whole pre-crash history.
        try:
            self.journal.compact()
        except OSError:
            pass
        TRACER.event("service.recovered", **report)
        return report

    def _restore_tombstones(self, finished: list) -> int:
        """Re-materialize pre-crash finished jobs as pollable entries.

        A client that saw its job complete must still be able to fetch
        the status and result after a restart (the rolling-restart
        zero-goodput-loss invariant).  ``done`` tombstones reload their
        artifact bytes through the verified cache probe; a record whose
        artifact fell out of the cache is skipped (the client resubmits
        and, content-addressed, usually hits anyway).
        """
        restored = 0
        # Last terminal record per job id wins; respect retention.
        latest: dict[str, dict] = {}
        for record in finished:
            if record.get("job_id"):
                latest[record["job_id"]] = record
        records = list(latest.values())[-self.config.job_retention:]
        for record in records:
            job_id = record["job_id"]
            if self.get(job_id) is not None:
                continue
            status = record.get("status")
            served = record.get("served_method")
            job = Job(
                job_id=job_id,
                key=record.get("key") or "",
                ir="",
                file_spec={},
                requested_method=served or "?",
                flags={},
            )
            job.attempts = int(record.get("attempts") or 0)
            if status == "done" and record.get("key"):
                data = self._cache_lookup(record["key"], None)
                if data is None:
                    continue
                job.cache = "hit"
                job.resolve(data, served or "?", bool(record.get("degraded")))
            elif status == "failed":
                job.dead_lettered = record.get("dead_letter") is not None
                job.fail(record.get("error") or "failed before restart")
            else:
                continue
            with self._lock:
                self._jobs[job_id] = job
                self._finished[job_id] = job
                try:
                    self._counter = max(self._counter, int(job_id.lstrip("j")))
                except ValueError:
                    pass
            restored += 1
        if restored:
            self._evict_finished()
        return restored

    # ------------------------------------------------------------------
    # Lifecycle control: drain (finish in-flight, reject new)
    # ------------------------------------------------------------------
    def drain(self) -> dict:
        """Enter draining mode and report the current lifecycle state.

        Idempotent: repeated calls keep returning the live lifecycle
        view, so callers poll this until ``drained`` flips true.
        """
        if not self.draining:
            self.draining = True
            TRACER.event("service.draining")
        return self.lifecycle()

    def resume(self) -> dict:
        """Leave draining mode (a drained shard rejoining the ring)."""
        self.draining = False
        return self.lifecycle()

    def is_drained(self) -> bool:
        """True when no accepted work remains queued or in flight."""
        with self._lock:
            return self._queue.qsize() == 0 and not self._inflight

    def drain_wait(self, timeout: float = 30.0, poll_s: float = 0.01) -> bool:
        """Drain and block until quiescent (or *timeout*); True if drained."""
        self.drain()
        deadline = time.monotonic() + timeout
        while not self.is_drained():
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)
        if self.journal is not None:
            try:
                self.journal.sync()
            except OSError:
                pass
        return True

    def lifecycle(self) -> dict:
        with self._lock:
            inflight = len(self._inflight)
        return {
            "draining": self.draining,
            "drained": self.draining and self.is_drained(),
            "inflight": inflight,
            "queue_depth": self._queue.qsize(),
            "journal": self.journal is not None,
        }

    # ------------------------------------------------------------------
    # Verified cache access
    # ------------------------------------------------------------------
    def _cache_lookup(self, key: str, original_ir: str) -> bytes | None:
        """Cache probe with verification per the configured mode.

        An entry that fails verification is quarantined and reported as
        a miss, so the caller recomputes — the self-healing path.
        """
        found = self.cache.get_entry(key)
        if found is None:
            return None
        data, source = found
        if not self.verifier.should_verify(source):
            return data
        report = self.verifier.verify_bytes(
            data, expected_key=key, original_ir=original_ir
        )
        with self._lock:
            self.counters["verified"] += 1
        if report.ok:
            return data
        self.cache.quarantine(key)
        with self._lock:
            self.counters["verify_failed"] += 1
        TRACER.event(
            "service.quarantine", key=key[:12], source=source,
            findings=report.findings[:3],
        )
        return None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: dict,
        trace: TraceContext | None = None,
        job_id: str | None = None,
    ) -> Job:
        """Validate, content-address, and enqueue one request.

        The returned job's ``cache`` field is this *submission's*
        disposition: ``hit`` (resolved from cache immediately),
        ``coalesced-onto`` (attached to an identical in-flight job), or
        ``miss`` (queued for execution).  Raises
        :class:`ServiceOverloadError` when the queue is at capacity.

        *trace* rides alongside the request (it is **not** part of the
        body, so it can never enter the cache key): when tracing is on,
        the job's ``service.job`` span nests under it (or under the
        thread's active context, or roots a new trace).

        *job_id*, when given, pins the new job's id (recovery replays
        jobs under their pre-crash ids so clients can keep polling).

        With a journal configured, a queued (cache-miss) job is written
        to the write-ahead journal *before* this method returns — the
        acceptance the caller sees is durable.  Hits and coalesces are
        never journaled: a hit is accepted-and-terminal in one step
        (there is no crash window), and a coalesce rides the journaled
        job it attached to.
        """
        if self.draining:
            with self._lock:
                self.counters["drained_rejects"] += 1
            TRACER.event("service.drain_reject", ctx=trace)
            raise ServiceDrainingError()
        normalized = normalize_request(request)
        kind = normalized["kind"]
        ir = normalized["ir"]
        file_spec = normalized["file"]
        method = normalized["method"]
        flags = normalized["flags"]
        machine = normalized["machine"]
        if machine == MACHINE_DEFAULT:
            machine = None  # default model rides as None end to end
        deadline_ms = normalized["deadline_ms"]
        deadline_s = None if deadline_ms is None else deadline_ms / 1000.0
        key = normalized["key"]

        with self._lock:
            self.counters["requests"] += 1

        # Ended when the job finishes; dropped unrecorded if the submit
        # coalesces or sheds instead of creating a job.
        span = TRACER.begin("service.job", category="service", ctx=trace)
        # The job's clock starts here, so its probe is part of its latency.
        started = time.monotonic()
        with TRACER.activate(span.ctx):
            cached = self._cache_lookup(key, ir)
        probe_s = time.monotonic() - started
        if cached is not None:
            job = self._new_job(
                key, ir, file_spec, method, flags, deadline_s, kind, machine,
                job_id=job_id, submitted_mono=started,
            )
            job.span, job.trace = span, span.ctx
            job.stages["cache"] = probe_s
            job.cache = "hit"
            job.resolve(cached, method, degraded=False)
            with self._lock:
                self.counters["cache_hits"] += 1
                self._finished[job.job_id] = job
            self._record_served(job)
            self._evict_finished()
            return job

        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.coalesced += 1
                self.counters["coalesced"] += 1
                TRACER.event(
                    "service.coalesced", ctx=trace, job=inflight.job_id
                )
                return inflight
            depth = self._queue.qsize()
            if depth >= self.config.max_queue_depth:
                self.counters["shed"] += 1
                TRACER.event("service.shed", ctx=trace, depth=depth)
                raise ServiceOverloadError(depth, self.config.max_queue_depth)
            job = self._new_job(
                key, ir, file_spec, method, flags, deadline_s, kind, machine,
                job_id=job_id, submitted_mono=started,
            )
            job.span, job.trace = span, span.ctx
            job.stages["cache"] = probe_s
            self._inflight[key] = job
            self.counters["cache_misses"] += 1
        if self.journal is not None:
            # Write-ahead: the acceptance is durable before the caller
            # sees it.  A journal-append failure must not lose the job
            # we are about to run — degrade to best-effort durability.
            try:
                self.journal.record_accepted(job)
            except (OSError, InjectedFault):
                pass
        self._queue.put(job)
        self._evict_finished()
        return job

    def _new_job(
        self, key, ir, file_spec, method, flags, deadline_s,
        kind, machine, job_id, submitted_mono,
    ) -> Job:
        with self._lock:
            if job_id is None:
                self._counter += 1
                job_id = f"j{self._counter:06d}"
            else:
                # Recovery pins pre-crash ids; keep the counter ahead of
                # them so fresh jobs never collide with recovered ones.
                try:
                    self._counter = max(self._counter, int(job_id.lstrip("j")))
                except ValueError:
                    pass
            job = Job(
                job_id=job_id,
                key=key,
                ir=ir,
                file_spec=file_spec,
                requested_method=method,
                flags=flags,
                kind=kind,
                machine=machine,
                deadline_s=deadline_s,
                submitted_mono=submitted_mono,
            )
            self._jobs[job_id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None and job_id in self._aliases:
                job = self._jobs.get(self._aliases[job_id])
            return job

    def lookup(self, job_id: str) -> dict | None:
        """Status view for *job_id*, falling back to dead-letter records.

        A dead-lettered job may have been evicted from the job table (or
        belong to a pre-crash incarnation recovered from the journal);
        its durable record still answers ``--job-id`` queries.
        """
        job = self.get(job_id)
        if job is not None:
            return job.describe()
        with self._lock:
            for record in reversed(self.dead_letter):
                if record.get("job_id") == job_id:
                    return {
                        "job_id": job_id,
                        "status": "failed",
                        "dead_lettered": True,
                        "key": record.get("key"),
                        "function": record.get("function"),
                        "requested_method": record.get("requested_method"),
                        "attempts": record.get("attempts"),
                        "error": record.get("error"),
                    }
        return None

    # ------------------------------------------------------------------
    # Bounded retention
    # ------------------------------------------------------------------
    def _evict_finished(self) -> None:
        """Drop the oldest finished jobs beyond the retention policy.

        ``job_retention`` bounds how many done/failed jobs stay pollable;
        ``job_ttl_s`` (when set) additionally expires finished jobs by
        age.  Queued/running jobs are never evicted.
        """
        config = self.config
        ttl = config.job_ttl_s
        now = time.monotonic()
        evicted = 0
        with self._lock:
            finished = self._finished
            # Finish order is age order, so only the front can expire.
            while finished:
                job = next(iter(finished.values()))
                if len(finished) <= config.job_retention and (
                    ttl is None or now - (job.finished_mono or now) <= ttl
                ):
                    break
                finished.popitem(last=False)
                self._jobs.pop(job.job_id, None)
                # Defensive: a finished job must never linger in the
                # coalescing map; drop it if a bug ever put it there.
                if self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
                evicted += 1
            self.counters["jobs_evicted"] += evicted

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def process_once(self, block: bool = False, timeout: float | None = None) -> int:
        """Take one queued job and run it to a terminal state or a
        requeue; returns 1 when a job was dispatched, 0 when none was."""
        try:
            job = self._queue.get(block=block, timeout=timeout)
        except _queue.Empty:
            return 0
        if job is None:  # stop sentinel
            return 0
        deliveries = 1
        if FAULTS.enabled:
            # Duplicate delivery: the same job is handed over twice; a
            # copy that finds the job no longer queued is absorbed.
            point = FAULTS.fire("queue.dispatch", label=job.job_id)
            if point is not None and point.mode == "duplicate":
                deliveries = 2
        for _ in range(deliveries):
            self._run(job)
        return 1

    def _run(self, job: Job) -> None:
        """Run one delivered job inline on the dispatcher.

        The tier is picked now, from the job's remaining deadline budget,
        and the cache is probed under that tier's key before any work is
        spent.  On a miss, under the job's trace the ``queue.execute``
        fault point fires (``stall`` sleeps, ``error`` raises), then the
        build runs in a ``worker.execute`` span, so the pipeline's pass
        and analysis spans nest inside it.  A module job reuses fragments
        through the *verified* cache probe (:class:`_FragmentView`), so a
        corrupted on-disk fragment heals instead of splicing garbage, and
        only the functions whose fragments miss re-run the pipeline; the
        reuse/execute split lands in :attr:`incremental`.  Function
        artifacts *are* fragments, so earlier requests of either shape
        warm the module path.

        The artifact is verified (against the request's IR, for a
        function job at the tier asked for) before it is cached or
        served.  Fail-stop: an artifact that fails its own verification
        is never cached or served, and the job retries — recompute is
        the healing path.
        """
        if job.status != "queued":
            # A copy of a job that already ran: absorb it, so no job is
            # run or served twice.
            with self._lock:
                self.counters["duplicate_deliveries"] += 1
            return
        job.status = "running"
        tier, degraded = select_tier(
            job.requested_method, job.remaining_s(), self.cost_model
        )
        if degraded:
            self._note_degradation(job, tier)
        # A degraded tier has its own content address; an earlier run
        # may already have produced exactly this artifact.
        key = job.key
        if tier != job.requested_method:
            key = request_key(
                job.kind, job.ir, job.file_spec, tier, job.flags, job.machine
            )
        probed = time.monotonic()
        job.stages["queue_wait"] = (
            probed - job.submitted_mono - job.stages["cache"]
        )
        with TRACER.activate(job.trace):
            cached = self._cache_lookup(key, job.ir)
        started = time.monotonic()
        job.stages["cache"] += started - probed
        if cached is not None:
            self._finish(job, cached, tier, degraded)
            return

        job.attempts += 1
        try:
            with TRACER.activate(job.trace):
                if FAULTS.enabled:
                    point = FAULTS.fire("queue.execute", label=tier)
                    if point is not None:
                        if point.mode == "stall":
                            stall_s = point.detail.get("stall_s", 0.05)
                            time.sleep(float(stall_s))
                        else:
                            raise InjectedFault(point.site, point.mode)
                with TRACER.span(
                    "worker.execute", category="worker", method=tier,
                    kind=job.kind,
                ):
                    if job.kind == "module":
                        artifact = build_module_artifact(
                            job.ir, job.file_spec, tier, job.flags,
                            machine=job.machine,
                            store=_FragmentView(self),
                            counters=self.incremental,
                        )
                    else:
                        artifact = build_artifact(
                            job.ir, job.file_spec, tier, job.flags,
                            job.machine,
                        )
        except Exception as exc:
            self._handle_failure(job, str(exc), retryable=_transient(exc))
            return
        data = artifact_bytes(artifact)
        built = time.monotonic()
        seconds = job.stages["alloc"] = built - started
        if self.verifier.should_verify("computed"):
            original_ir = (
                job.ir
                if job.kind == "function" and tier == job.requested_method
                else None
            )
            with TRACER.activate(job.trace):
                report = self.verifier.verify_bytes(
                    data, expected_key=artifact["key"], original_ir=original_ir
                )
            job.stages["verify"] = time.monotonic() - built
            with self._lock:
                self.counters["verified"] += 1
            if not report.ok:
                with self._lock:
                    self.counters["verify_failed"] += 1
                TRACER.event(
                    "service.verify_fail", ctx=job.trace,
                    job=job.job_id, findings=report.findings[:3],
                )
                self._handle_failure(
                    job,
                    "artifact failed verification: "
                    + "; ".join(report.findings[:3]),
                    retryable=True,
                )
                return
        self.cost_model.observe(tier, seconds)
        self.cache.put(artifact["key"], data)
        self._finish(job, data, tier, degraded)
        with self._lock:
            self.counters["executed"] += 1

    # ------------------------------------------------------------------
    # Failure path: bounded retries, then the dead-letter record
    # ------------------------------------------------------------------
    def _handle_failure(
        self, job: Job, error: str, *, retryable: bool = True
    ) -> None:
        if retryable and job.attempts <= self.config.job_retries:
            backoff = min(
                self.config.job_backoff_s * (2 ** (job.attempts - 1)), 1.0
            )
            if backoff > 0:
                time.sleep(backoff)
            with self._lock:
                self.counters["retried"] += 1
            TRACER.event(
                "service.retry", ctx=job.trace,
                job=job.job_id, attempt=job.attempts, error=error[:160],
            )
            job.status = "queued"
            job.error = error  # last error kept visible while retrying
            self._queue.put(job)
            return
        TRACER.event(
            "service.dead_letter", ctx=job.trace,
            job=job.job_id, attempts=job.attempts, error=error[:160],
        )
        with self._lock:
            self.counters["dead_lettered"] += 1
            record = {
                "job_id": job.job_id,
                "key": job.key,
                "function": job.function_name,
                "requested_method": job.requested_method,
                "attempts": job.attempts,
                "error": error,
            }
            self.dead_letter.append(record)
            del self.dead_letter[:-DEAD_LETTER_LIMIT]
        job.dead_lettered = True
        self._fail(job, error, dead_letter=record)

    # ------------------------------------------------------------------
    def _finish(self, job: Job, data: bytes, tier: str, degraded: bool) -> None:
        if job.finished:
            with self._lock:
                self.counters["duplicate_deliveries"] += 1
            return
        job.resolve(data, tier, degraded)
        with self._lock:
            self._inflight.pop(job.key, None)
            self._finished[job.job_id] = job
            self.counters[f"tier_{tier}"] += 1
            if degraded:
                self.counters["degraded"] += 1
        self._journal_terminal(job)
        self._record_served(job)
        self._evict_finished()

    def _fail(self, job: Job, error: str, dead_letter: dict | None = None) -> None:
        if job.finished:
            return
        job.fail(error)
        with self._lock:
            self._inflight.pop(job.key, None)
            self._finished[job.job_id] = job
            self.counters["failed"] += 1
        self._journal_terminal(job, dead_letter=dead_letter)
        self._record_failed(job, error)
        self._evict_finished()

    def _journal_terminal(self, job: Job, dead_letter: dict | None = None) -> None:
        """Write-ahead the terminal state; never let the journal fail a
        finished job (an append error degrades durability, not service).
        """
        if self.journal is None:
            return
        try:
            self.journal.record_terminal(
                job.job_id,
                job.status,
                key=job.key,
                served_method=job.served_method,
                degraded=job.degraded,
                error=job.error,
                dead_letter=dead_letter,
                attempts=job.attempts,
            )
        except (OSError, InjectedFault):
            pass

    def _note_degradation(self, job: Job, tier: str) -> None:
        remaining = job.remaining_s()
        TRACER.event(
            "service.degrade", ctx=job.trace,
            job=job.job_id, requested=job.requested_method, served=tier,
            remaining_ms=None if remaining is None else remaining * 1000.0,
        )

    # ------------------------------------------------------------------
    # Fleet telemetry: the one place every terminal job goes through
    # ------------------------------------------------------------------
    def _record_served(self, job: Job) -> None:
        """SLO sample + stage histograms + job span + event for one
        successfully served job (cache hit or executed)."""
        latency = (job.finished_mono or time.monotonic()) - job.submitted_mono
        with self._lock:
            self.latency_hist.observe(latency)
            for stage, seconds in job.stages.items():
                hist = self.stage_hist.get(stage)
                if hist is None:
                    hist = self.stage_hist[stage] = StreamingHistogram()
                hist.observe(seconds)
        self.slo.record(ok=True, latency_s=latency, good=not job.degraded)
        self._end_job_span(job)
        self._emit_event(job)

    def _record_failed(self, job: Job, error: str) -> None:
        latency = (job.finished_mono or time.monotonic()) - job.submitted_mono
        with self._lock:
            self.latency_hist.observe(latency)
        self.slo.record(ok=False, latency_s=latency, good=False)
        self._end_job_span(job, error=error)
        self._emit_event(job)

    def _end_job_span(self, job: Job, error: str | None = None) -> None:
        if job.trace is None:
            return
        job.span.note(
            job=job.job_id,
            function=job.function_name,
            cache=job.cache,
            requested=job.requested_method,
            served=job.served_method,
            degraded=job.degraded,
            stages={k: round(v, 6) for k, v in job.stages.items()},
        )
        if error is not None:
            job.span.note(error=error[:200])
        job.span.end()

    def _emit_event(self, job: Job) -> None:
        if not EVENTS.enabled:
            return
        latency = (job.finished_mono or time.monotonic()) - job.submitted_mono
        EVENTS.emit(
            {
                "ts": round(time.time(), 6),
                "proc": TRACER.process,
                "trace": job.trace.trace_id if job.trace else None,
                "job": job.job_id,
                "function": job.function_name,
                "status": job.status,
                "cache": job.cache,
                "requested": job.requested_method,
                "served": job.served_method,
                "degraded": job.degraded,
                "retries": max(0, job.attempts - 1),
                "coalesced": job.coalesced,
                "latency_ms": round(latency * 1000.0, 3),
                "stages_ms": {
                    k: round(v * 1000.0, 3) for k, v in job.stages.items()
                },
                "error": job.error,
            }
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
            dead_letter = list(self.dead_letter)
        stats = {
            "counters": counters,
            "incremental": dict(self.incremental),
            "queue_depth": self._queue.qsize(),
            "cache": self.cache.stats(),
            "tiers": self.cost_model.snapshot(),
            "dead_letter": dead_letter,
            "slo": self.slo.snapshot(),
            "lifecycle": self.lifecycle(),
            "config": {
                "verify": self.config.verify,
                "job_retries": self.config.job_retries,
                "job_retention": self.config.job_retention,
                "max_queue_depth": self.config.max_queue_depth,
            },
        }
        if self.journal is not None:
            stats["journal"] = self.journal.stats()
        faults = FAULTS.stats()
        if faults is not None:
            stats["faults"] = faults
        return stats

    def metrics_sample(self) -> dict:
        """The live sample behind ``GET /v1/metrics``: this service's
        always-on counters, queue/cache gauges, and stage/latency
        histograms, in the ``{"counters", "gauges", "histograms"}``
        shape :func:`~repro.obs.telemetry.render_prometheus` consumes.
        """
        with self._lock:
            counters = {
                f"service.{name}": value
                for name, value in self.counters.items()
            }
            counters.update(
                {
                    f"service.incremental.{name}": value
                    for name, value in self.incremental.items()
                }
            )
            histograms = {
                f"service.stage_s.{name}": hist.summary()
                for name, hist in self.stage_hist.items()
            }
            histograms["service.latency_s"] = self.latency_hist.summary()
        cache = self.cache.stats()
        gauges = {
            "service.queue.depth": self._queue.qsize(),
            "service.cache.entries": cache["entries"],
            "service.cache.quarantined": cache["quarantined"],
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
