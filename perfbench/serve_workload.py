"""serve-zipf: open-loop Zipf traffic through a real ``repro serve`` fleet.

The fleet is ``repro serve --shards 2 --cache-dir D --journal J`` in a
subprocess, driven through the shipped ``ServiceClient`` by at most
``nproc`` client threads.  Arrivals follow a seeded schedule (uniform
order statistics over the phase, i.e. Poisson arrivals conditioned on
their count) whatever the fleet is doing, and every request is timed
from its scheduled arrival.  About 80% of requests draw a function of
the hot set by Zipf rank (cache hits: it was warmed during set-up); the
rest send a function never sent before (cache misses: pipeline, cache
write, journal append).  One request is submit, wait when queued, and
fetch of the artifact bytes.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from common import (
    E2E_METRICS,
    LAYER_METRICS,
    LEDGER_TOLERANCE,
    Outcome,
    median,
    percentile,
    rename,
)
from spans import SpanLog
from speed import SpeedProbe

from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.resilience.verifier import AllocationVerifier
from repro.service.artifact import (
    artifact_bytes,
    build_artifact,
    build_register_file,
    normalize_request,
)
from repro.service.client import ServiceClient, ServiceError
from repro.prescount.pipeline import PipelineConfig, run_pipeline
from repro.sim.dsa import DsaMachine
from repro.sim.dynamic import estimate_dynamic_conflicts
from repro.sim.exec import observably_equivalent
from repro.workloads.cnn import cnn_suite
from repro.workloads.specfp import specfp_suite

FILE = {"registers": 32, "banks": 2}
SHARDS = 2
#: Only functions of this many instructions are sent ...
SIZE_RANGE = (30, 300)
#: ... that are expected to execute at most this many instructions.
MAX_INTERPRETED = 100_000
MISS_SHARE = 0.2
ZIPF_S = 1.1
RUNG_SECONDS = 4.0
#: Unmeasured traffic before the nominal phase: the first seconds after
#: warm-up run slower in every process of the fleet.
SETTLE_SECONDS = 2.0
LIMIT_P99_MS = 250.0
REQUEST_TIMEOUT_S = 10.0
#: Open-loop client threads: at most one per usable CPU.
CLIENT_THREADS = max(1, len(os.sched_getaffinity(0)))
_UNTRACED = nullcontext()


@dataclass
class ServeWorkload:
    #: Functions in the hot set, and distinct functions misses cycle over.
    hot: int = 32
    miss_base: int = 48
    #: Nominal arrival rate (req/s); the first rung of the SLO ladder.
    rate: float = 20.0
    #: Higher rungs, each run for ``RUNG_SECONDS`` while the SLO holds.
    ladder: tuple[float, ...] = (30.0, 45.0, 60.0)
    setup_repeats: int = 3
    #: Responses checked against a direct build and the strict verifier.
    samples: int = 12


def population(work: ServeWorkload) -> tuple[list[str], list[str]]:
    """The hot set and the miss base.

    SPECfp and CNN functions in the request size range whose execution
    the strict verifier's interpreter can finish, largest first; the two
    sets alternate through that order and each is spread evenly over it,
    so both span the size range and the hot set holds its largest
    (spilling) function.
    """
    functions = specfp_suite(0.04, 0).functions() + cnn_suite(0.5, 0).functions()
    register_file = build_register_file(FILE)
    lo, hi = SIZE_RANGE
    eligible = sorted(
        (
            f for f in functions
            if lo <= f.instruction_count() <= hi
            and estimate_dynamic_conflicts(f, register_file).executed_instructions
            <= MAX_INTERPRETED
        ),
        key=lambda f: (-f.instruction_count(), f.name),
    )

    def spread(items: list, count: int) -> list:
        if len(items) < count:
            raise ValueError(f"only {len(items)} functions fit the serve-zipf population")
        return [items[i * len(items) // count] for i in range(count)]

    texts = [print_function(f) for f in eligible]
    # Zipf ranks follow name order, not size.
    return sorted(spread(texts[0::2], work.hot)), spread(texts[1::2], work.miss_base)


# ----------------------------------------------------------------------
class Fleet:
    """One ``repro serve`` subprocess with its own cache and journal."""

    def __init__(self, directory: str, src: str, shards: int):
        self.directory = directory
        self.src = src
        self.shards = shards
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.shard_pids: list[int] = []

    def start(self, timeout_s: float = 60.0) -> ServiceClient:
        os.makedirs(self.directory, exist_ok=True)
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", os.path.join(self.directory, "cache"),
            "--journal", os.path.join(self.directory, "journal"),
        ]
        if self.shards:
            cmd += ["--shards", str(self.shards)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH")) if p
        )
        log_path = os.path.join(self.directory, "server.log")
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        deadline = time.monotonic() + timeout_s
        while not self.url:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start; see {log_path}")
            with open(log_path) as log:
                found = re.search(r"listening on (http://\S+)", log.read())
            if found:
                self.url = found.group(1)
            else:
                time.sleep(0.01)
        client = ServiceClient(self.url, retries=0)
        while True:
            try:
                client.health()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        if self.shards:
            shards = client.stats()["router"]["shards"]
            self.shard_pids = [s["pid"] for s in shards.values() if s.get("pid")]
        return client

    def peak_rss_mb(self) -> float:
        """Sum of the fleet processes' peak resident sets."""
        total_kb = 0
        for pid in [self.proc.pid, *self.shard_pids]:
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def cpu_s(self) -> float:
        """CPU seconds the fleet's processes have used so far.

        ``/proc/<pid>/stat`` counts every thread of a process, including
        the per-connection handler threads that have already exited.
        """
        ticks = 0
        for pid in [self.proc.pid, *self.shard_pids]:
            with open(f"/proc/{pid}/stat") as stat:
                fields = stat.read().rsplit(") ", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure every process is gone."""
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        for pid in self.shard_pids:
            deadline = time.monotonic() + 10
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.02)
        self.proc = None
        shutil.rmtree(self.directory, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().split(") ", 1)[1][0] != "Z"
    except (OSError, IndexError):
        return False


# ----------------------------------------------------------------------
@dataclass
class Request:
    index: int
    at_s: float
    body: dict
    hot: bool
    sampled: bool = False


@dataclass
class Record:
    request: Request
    latency_s: float | None = None
    error: str | None = None
    cache: str = ""
    served: str = ""
    stages: dict = field(default_factory=dict)
    data: bytes | None = None


def apportion(weights: list[float], total: int) -> list[int]:
    """Split *total* in proportion to *weights* (largest remainder)."""
    quotas = [w * total / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


class Traffic:
    """Seeded request stream: Zipf over the hot set, fresh misses."""

    def __init__(self, hot: list[str], miss: list[str], seed: int):
        self.hot = hot
        self.miss = miss
        self.rng = random.Random(seed)
        self.weights = [1.0 / rank ** ZIPF_S for rank in range(1, len(hot) + 1)]
        self.misses_sent = 0
        self.sent = 0

    def body(self, ir: str) -> dict:
        return {"ir": ir, "file": dict(FILE), "method": "bpc"}

    def phase(self, rate: float, seconds: float) -> list[Request]:
        """One phase's requests.  The seed draws arrival times and order,
        not the mix: exactly MISS_SHARE of the phase misses, walking the
        miss base in order, and the hits are apportioned to the Zipf
        ranks.  Hot functions differ in size and a miss costs several
        hits' CPU, so a drawn mix would move the CPU per request from
        seed to seed."""
        count = max(1, round(rate * seconds))
        times = sorted(self.rng.uniform(0.0, seconds) for _ in range(count))
        misses = round(count * MISS_SHARE)
        is_miss = [True] * misses + [False] * (count - misses)
        self.rng.shuffle(is_miss)
        ranks = [rank for rank, n in enumerate(apportion(self.weights, count - misses))
                 for _ in range(n)]
        self.rng.shuffle(ranks)
        requests = []
        for at, miss in zip(times, is_miss):
            if miss:
                base = self.miss[self.misses_sent % len(self.miss)]
                text = rename(base, f".m{self.misses_sent}")
                self.misses_sent += 1
                requests.append(Request(self.sent, at, self.body(text), hot=False))
            else:
                rank = ranks.pop()
                requests.append(Request(self.sent, at, self.body(self.hot[rank]), hot=True))
            self.sent += 1
        return requests


def _one(client: ServiceClient, req: Request, due: float, timeout_s: float,
         log: SpanLog | None) -> Record:
    rec = Record(req)
    span = log.span if log is not None else (lambda _name: _UNTRACED)
    try:
        with span("http.submit"):
            status = client.submit_request(req.body)
        rec.cache = status.get("cache", "")
        if status["status"] not in ("done", "failed"):
            with span("client.wait"):
                status = client.wait(status["job_id"], timeout=timeout_s)
        if status["status"] != "done":
            rec.error = f"job {status['job_id']} {status['status']}: {status.get('error')}"
            return rec
        with span("http.result"):
            data = client.result(status["job_id"])
        rec.latency_s = time.perf_counter() - due
        rec.served = status.get("served_method") or "bpc"
        rec.stages = status.get("stages") or {}
        if req.sampled:
            rec.data = data
    except ServiceError as exc:  # 429/503 and timeouts included: no retries
        rec.error = str(exc)
    return rec


@dataclass
class PhaseResult:
    records: list[Record]
    lateness_s: list[float]
    backlog_grows: bool

    @property
    def ok(self) -> list[Record]:
        return [r for r in self.records if r.error is None]

    def p99_with_failures_ms(self) -> float:
        """p99 where a failed request counts as missing every limit."""
        values = [r.latency_s * 1e3 if r.error is None else float("inf")
                  for r in self.records]
        return percentile(values, 99)

    def meets(self, limit_ms: float) -> bool:
        return self.p99_with_failures_ms() <= limit_ms and not self.backlog_grows


def drive(url: str, requests: list[Request], work: ServeWorkload,
          log: SpanLog | None = None) -> PhaseResult:
    """Send *requests* open-loop at their scheduled times."""
    local = threading.local()
    lock = threading.Lock()
    done = [0]

    def client() -> ServiceClient:
        c = getattr(local, "client", None)
        if c is None:
            c = local.client = ServiceClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
            if log is not None:
                c.poll = log.wrap(c.poll, "http.poll")
        return c

    def task(req: Request, due: float) -> Record:
        try:
            if log is None:
                return _one(client(), req, due, REQUEST_TIMEOUT_S, None)
            with log.span("request", rid=str(req.index), start=due):
                log.record("client.queue", due, time.perf_counter())
                return _one(client(), req, due, REQUEST_TIMEOUT_S, log)
        finally:
            with lock:
                done[0] += 1

    lateness: list[float] = []
    outstanding: list[int] = []
    started = time.perf_counter() + 0.02
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as executor:
        futures = []
        for req in requests:
            due = started + req.at_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - due))
            with lock:
                outstanding.append(len(futures) - done[0])
            futures.append(executor.submit(task, req, due))
        records = [f.result() for f in futures]
    # The backlog grows when requests in flight at the last quarter's
    # arrivals clearly outnumber those at the first quarter's.
    quarter = max(1, len(outstanding) // 4)
    first = sum(outstanding[:quarter]) / quarter
    last = sum(outstanding[-quarter:]) / quarter
    return PhaseResult(records, lateness, last > 2 * first + CLIENT_THREADS)


# ----------------------------------------------------------------------
def _warm(client: ServiceClient, traffic: Traffic, texts: list[str]) -> list[bytes]:
    """Send every hot function once and return the artifacts."""
    statuses = [client.submit_request(traffic.body(text)) for text in texts]
    artifacts = []
    for status in statuses:
        if status["status"] not in ("done", "failed"):
            status = client.wait(status["job_id"], timeout=60)
        if status["status"] != "done":
            raise RuntimeError(f"warm-up request failed: {status.get('error')}")
        artifacts.append(client.result(status["job_id"]))
    return artifacts


def _quality(artifacts: list[bytes]) -> dict[str, float]:
    machine = DsaMachine(build_register_file(FILE))
    conflicts = spill_copy = 0
    cycles = 0.0
    for data in artifacts:
        artifact = json.loads(data)
        stats = artifact["stats"]
        conflicts += stats["static_conflicts"]
        spill_copy += stats["spill_instructions"] + stats["copies_inserted"]
        cycles += machine.run(parse_function(artifact["ir"])).cycles
    return {
        "static_conflicts_bpc": conflicts,
        "spill_copy_instrs_bpc": spill_copy,
        "cycles_bpc": cycles,
    }


def _check_samples(phase: PhaseResult, outcome: Outcome) -> list[float]:
    """Sampled responses: byte-equal to a direct build, clean under the
    strict verifier, and the direct build observably equivalent to the
    request under the reference interpreter.

    The verifier's own semantic spot-check (``original_ir=``) is not
    used: it re-parses the artifact's printed IR, which carries no
    spill-slot tags, so it misreads every artifact with spill code.
    """
    verifier = AllocationVerifier("strict")
    register_file = build_register_file(FILE)
    verify_ms = []
    for rec in phase.ok:
        if rec.data is None:
            continue
        body = rec.request.body
        label = f"request {rec.request.index} ({body['ir'].split(' {', 1)[0]})"
        expected = artifact_bytes(build_artifact(body["ir"], body["file"], rec.served))
        outcome.check(rec.data == expected, f"{label}: served bytes differ from a direct build")
        started = time.perf_counter()
        report = verifier.verify_bytes(rec.data, expected_key=normalize_request(body)["key"])
        verify_ms.append((time.perf_counter() - started) * 1e3)
        outcome.check(report.ok, f"{label}: {report.render()}")
        original = parse_function(body["ir"])
        allocated = run_pipeline(original, PipelineConfig(register_file, rec.served)).function
        outcome.check(observably_equivalent(original, allocated),
                      f"{label}: allocation is not observably equivalent")
    return verify_ms


def _mark_samples(requests: list[Request], count: int) -> None:
    """Sample the first distinct hot functions and the first misses."""
    seen: set[str] = set()
    hot = miss = 0
    for req in requests:
        if req.hot and hot < count // 2 and req.body["ir"] not in seen:
            seen.add(req.body["ir"])
            req.sampled = True
            hot += 1
        elif not req.hot and miss < count - count // 2:
            req.sampled = True
            miss += 1


def _account(phase: PhaseResult, outcome: Outcome, label: str) -> None:
    for rec in phase.records:
        outcome.attempted += 1
        if rec.error is not None:
            outcome.fail(f"{label} request {rec.request.index}: {rec.error}")


def run(work: ServeWorkload, seed: int, seconds: float, trace: bool,
        src: str, scratch: str) -> Outcome:
    outcome = Outcome("serve-zipf")
    hot, miss = population(work)
    traffic = Traffic(hot, miss, seed)

    fleets: list[Fleet] = []
    try:
        # CPU times are the fleet's and the client's, without the probe
        # thread's, at reference speed (speed.py).
        with SpeedProbe() as speed:
            def cpu_s() -> float:
                return fleet.cpu_s() + time.process_time() - speed.cpu_s

            setup, setup_wall = [], []
            mark = speed.mark()
            for attempt in range(1 if trace else work.setup_repeats):
                if fleets:
                    fleets.pop().stop()
                fleet = Fleet(os.path.join(scratch, f"fleet{attempt}"), src, SHARDS)
                fleets.append(fleet)
                started, cpu_started = time.perf_counter(), time.process_time() - speed.cpu_s
                client = fleet.start()
                artifacts = _warm(client, traffic, hot)
                setup_wall.append(time.perf_counter() - started)
                setup.append(cpu_s() - cpu_started)
            outcome.e2e["setup_s"] = speed.scale(median(setup), mark)
            outcome.report["setup_cpu_s"] = (median(setup), "s")
            quality = _quality(artifacts)

            settle = drive(fleet.url, traffic.phase(work.rate, SETTLE_SECONDS), work)
            nominal_requests = traffic.phase(work.rate, seconds)
            _mark_samples(nominal_requests, work.samples)
            mark = speed.mark()
            cpu_started = cpu_s()
            nominal = drive(fleet.url, nominal_requests, work)
            nominal_cpu_s = cpu_s() - cpu_started
            outcome.report["nominal_cpu_s"] = (nominal_cpu_s, "s")
            slowdown = speed.slowdown(mark)
            nominal_cpu_s = speed.scale(nominal_cpu_s, mark)
            _account(settle, outcome, "settle")
            _account(nominal, outcome, "nominal")
            # Under the same probe as the nominal phase, which the traced
            # phase is compared with.
            slo = None
            if trace:
                _traced(work, traffic, fleet, client, nominal, seconds, src, scratch, hot,
                        outcome)
            else:
                slo = _ladder(work, traffic, fleet, nominal, outcome)
        outcome.e2e["peak_rss_mb"] = fleet.peak_rss_mb()
    finally:
        for fleet in fleets:
            fleet.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    verify_ms = _check_samples(nominal, outcome)

    ok = nominal.ok
    latencies = [r.latency_s for r in ok]
    span_s = max((r.request.at_s + r.latency_s for r in ok), default=seconds)
    outcome.e2e.update({
        "cpu_ms_per_op": nominal_cpu_s / max(1, len(ok)) * 1e3,
        **quality,
    })
    assert set(outcome.e2e) == set(E2E_METRICS)
    hits = sum(1 for r in nominal.records if r.request.hot)
    report = outcome.report
    report["setup_s"] = (outcome.e2e["setup_s"], "s")
    report["setup_wall_s"] = (median(setup_wall), "s")
    report["cpu_ms_per_op"] = (outcome.e2e["cpu_ms_per_op"], "ms")
    report["slowdown"] = (slowdown, "x")
    for pct in (50, 90, 99):
        report[f"req_ms_p{pct}"] = (percentile(latencies, pct) * 1e3, "ms")
    report["goodput_rps"] = (len(ok) / span_s, "1/s")
    if slo is not None:
        report["slo_rps"] = (slo, "1/s")
    report["lateness_ms_p99"] = (percentile(nominal.lateness_s, 99) * 1e3, "ms")
    report["backlog_grows"] = (int(nominal.backlog_grows), "bool")
    report["hot_requests"] = (hits, "count")
    report["miss_requests"] = (len(nominal.records) - hits, "count")
    report["peak_rss_mb"] = (outcome.e2e["peak_rss_mb"], "MB")
    for name, value in quality.items():
        report[name] = (value, E2E_METRICS[name])
    if verify_ms and trace:
        outcome.layers["verifier.strict.ms"] = median(verify_ms)
    outcome.notes.append(
        f"{len(nominal.records)} requests at {work.rate:g} req/s over {seconds:g}s, "
        f"{CLIENT_THREADS} client threads, p99 limit {LIMIT_P99_MS:g} ms; "
        f"{sum(r.data is not None for r in ok)} responses checked byte for byte"
    )
    return outcome


def _ladder(work, traffic, fleet, nominal, outcome) -> float:
    """Highest rung whose p99 (failures count as misses) meets the limit
    without a growing backlog."""
    slo = work.rate if nominal.meets(LIMIT_P99_MS) else 0.0
    outcome.notes.append(
        f"rung {work.rate:g} req/s: p99 {nominal.p99_with_failures_ms():.1f} ms, "
        f"backlog grows {nominal.backlog_grows}"
    )
    if slo:
        for rate in work.ladder:
            rung = drive(fleet.url, traffic.phase(rate, RUNG_SECONDS), work)
            failed = sum(1 for r in rung.records if r.error is not None)
            outcome.notes.append(
                f"rung {rate:g} req/s: p99 {rung.p99_with_failures_ms():.1f} ms, "
                f"backlog grows {rung.backlog_grows}, {failed} failed"
            )
            if not rung.meets(LIMIT_P99_MS):
                break
            slo = rate
    return slo


def _stats_counts(stats: dict) -> dict[str, int]:
    counters = stats.get("counters", {})
    frames = sum(
        shard.get("journal", {}).get("appended", 0)
        for shard in stats.get("shards", {}).values()
    )
    return {
        "requests": counters.get("requests", 0),
        "hits": counters.get("cache_hits", 0),
        "misses": counters.get("cache_misses", 0),
        "coalesced": counters.get("coalesced", 0),
        "frames": frames,
    }


def _traced(work, traffic, fleet, client, untraced, seconds, src, scratch, hot, outcome):
    """A traced nominal phase, the router comparison, and the ledger."""
    log = SpanLog()
    before = _stats_counts(client.stats())
    phase = drive(fleet.url, traffic.phase(work.rate, seconds), work, log)
    after = _stats_counts(client.stats())
    _account(phase, outcome, "traced")
    delta = {k: after[k] - before[k] for k in after}

    roots = log.roots("request")
    wall = sum(s.end - s.start for s in roots)
    self_times = log.self_times()
    total = sum(self_times.values())
    unattributed = self_times.get("request", 0.0)
    outcome.check(abs(total - wall) <= 1e-3 * wall,
                  f"span self times sum to {total:.4f}s, request walls to {wall:.4f}s")
    outcome.check(unattributed <= LEDGER_TOLERANCE * wall,
                  f"ledger leaves {unattributed / wall:.1%} of request time unattributed")
    outcome.ledger = sorted(self_times.items(), key=lambda kv: -kv[1])
    outcome.ledger_wall_s = wall

    layers = {name: 0.0 for name in LAYER_METRICS}
    by_rid: dict[str, dict[str, list[float]]] = {}
    for span in log.spans:
        by_rid.setdefault(span.rid, {}).setdefault(span.name, []).append(span.end - span.start)
    hit_submit, miss_submit, polls_per_miss = [], [], []
    for rec in phase.ok:
        spans = by_rid.get(str(rec.request.index), {})
        submit = spans.get("http.submit", [0.0])[0] * 1e3
        (hit_submit if rec.cache == "hit" else miss_submit).append(submit)
        if rec.cache != "hit":
            polls_per_miss.append(len(spans.get("http.poll", [])))
    layers["http.submit.hit.ms"] = median(hit_submit)
    layers["http.submit.miss.ms"] = median(miss_submit)
    layers["http.poll.ms"] = median([d * 1e3 for d in log.durations("http.poll")])
    layers["http.result.ms"] = median([d * 1e3 for d in log.durations("http.result")])
    layers["client.polls_per_miss"] = sum(polls_per_miss) / max(1, len(polls_per_miss))
    for stage in ("cache", "queue_wait", "alloc", "verify"):
        values = [r.stages[stage] * 1e3 for r in phase.ok if stage in r.stages]
        layers[f"queue.stage.{stage}.ms"] = median(values)
    layers["cache.requests"] = delta["requests"]
    layers["cache.hit_ratio"] = delta["hits"] / delta["requests"] if delta["requests"] else 0.0
    layers["queue.coalesced"] = delta["coalesced"]
    layers["journal.frames_per_miss"] = delta["frames"] / delta["misses"] if delta["misses"] else 0.0

    bodies = [traffic.body(text) for text in hot]
    timings = []
    for _ in range(5):
        for body in bodies:
            started = time.perf_counter()
            normalize_request(body)
            timings.append((time.perf_counter() - started) * 1e3)
    layers["artifact.normalize.ms"] = median(timings)
    layers["router.hit_overhead.ms"] = _router_overhead(client, bodies, traffic, src, scratch, hot)

    untraced_p50 = percentile([r.latency_s for r in untraced.ok], 50)
    traced_p50 = percentile([r.latency_s for r in phase.ok], 50)
    layers["trace.overhead_pct"] = (traced_p50 - untraced_p50) / untraced_p50 * 100.0
    layers["ledger.unattributed_pct"] = unattributed / wall * 100.0
    outcome.layers.update(layers)
    outcome.notes.append(
        f"traced p50 {traced_p50 * 1e3:.3f} ms vs untraced {untraced_p50 * 1e3:.3f} ms "
        f"(tracing overhead {(traced_p50 - untraced_p50) * 1e3:+.3f} ms)"
    )
    outcome.spans = log


def _router_overhead(fleet_client, bodies, traffic, src, scratch, hot) -> float:
    """Median hit submit through the sharded fleet minus through a
    single-process server, measured interleaved."""
    single = Fleet(os.path.join(scratch, "single"), src, shards=0)
    try:
        single_client = single.start()
        _warm(single_client, traffic, hot)
        sharded, direct = [], []
        for _ in range(3):
            for body in bodies:
                for client, times in ((fleet_client, sharded), (single_client, direct)):
                    started = time.perf_counter()
                    client.submit_request(body)
                    times.append(time.perf_counter() - started)
    finally:
        single.stop()
    return (median(sharded) - median(direct)) * 1e3
