"""Seeded open-loop traffic harness for the service (``repro loadgen``).

Closed-loop clients (issue, wait, repeat) hide overload: when the server
slows down, a closed loop slows its own arrival rate and the measured
latency flatters the system.  This harness is **open-loop** — arrivals
follow a seeded schedule that does not care how the server is doing —
so queueing delay shows up in the tail percentiles exactly the way it
would for real traffic (the coordinated-omission lesson).

The traffic shape is fully determined by the seed:

* **arrival ramp** — phases of ``(duration_s, rps)``; inter-arrival
  gaps are exponential (Poisson arrivals), drawn from the seeded RNG;
* **Zipf popularity** — request *i* targets a kernel drawn from a
  ``1/rank^s`` distribution over a deterministic kernel pool, so a few
  hot keys dominate and stress one shard's cache/coalescing path
  (exactly what the consistent-hash layout must absorb);
* **deadline mix** — a seeded fraction of requests carry deadlines
  drawn from a fixed menu, exercising the ``bpc→bcr→non`` degradation
  ladder under load.

Determinism contract (what :func:`~repro.experiments.history.diff_records`
may gate on vs. report): the *request sequence*, the per-shard routing
counts, ``goodput``/``failed``/``verify_failed``, and the sampled-
response bit-identity checks are deterministic for a fixed seed against
a healthy fleet.  Latency percentiles, throughput, and the degraded
count depend on wall-clock timing and are **informational only** — the
same split the BENCH history schema already draws for its ``latency``
block.  The telemetry additions follow the same line: per-stage timing
aggregates (``stages_ms``), the client-side SLO snapshot (``slo``), and
the sampled ``trace_ids`` are wall-clock-dependent and informational —
``repro bench diff`` reports stage regressions but gates only on the
deterministic fields.

Bit-identity: the first ``sample`` distinct kernels' responses are
compared byte-for-byte against a direct single-process
:func:`~repro.service.artifact.build_artifact` run at the tier actually
served — the acceptance check that sharding (and degradation under it)
never changes *what* is computed, only *where*.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..obs import TRACER, TraceContext
from ..obs.telemetry import SLOTracker
from .artifact import artifact_bytes, build_artifact
from .client import ServiceClient, ServiceError
from .queue import ServiceOverloadError
from .shard import ShardError, ShardRouter

__all__ = [
    "LoadgenConfig",
    "build_kernel_pool",
    "build_schedule",
    "loadgen_record",
    "percentile",
    "run_loadgen",
]


@dataclass
class LoadgenConfig:
    """One seeded traffic scenario.

    ``phases`` ramps the arrival rate: each entry is ``(duration_s,
    rps)``; once every phase has elapsed the last rate carries on until
    ``requests`` arrivals have been scheduled, so the request count is
    exact and seed-stable.
    """

    seed: int = 0
    #: Total arrivals scheduled (exact).
    requests: int = 60
    #: Distinct kernels in the popularity pool.
    pool: int = 12
    #: Zipf skew ``s`` (weights ``1/rank^s``); larger = hotter head.
    zipf_s: float = 1.1
    #: Arrival-rate ramp: ``(duration_s, rps)`` phases.
    phases: tuple = ((0.5, 80.0), (0.5, 240.0))
    #: Fraction of requests carrying a deadline.
    deadline_frac: float = 0.0
    #: Deadline menu (milliseconds) for that fraction.
    deadline_choices_ms: tuple = (5.0, 20.0, 100.0)
    method: str = "bpc"
    registers: int = 16
    banks: int = 2
    #: Distinct kernels whose responses are checked bit-identical
    #: against a direct single-process run.
    sample: int = 4
    #: Concurrent in-flight request workers.
    max_in_flight: int = 32
    #: Per-request completion timeout.
    timeout_s: float = 30.0

    def fingerprint(self) -> dict:
        """The generation parameters — the record's config identity.

        Deliberately excludes anything about *where* the traffic went
        (host, port, shard count): the same scenario replayed against a
        different fleet size must stay diffable.
        """
        return {
            "kind": "loadgen",
            "seed": self.seed,
            "requests": self.requests,
            "pool": self.pool,
            "zipf_s": self.zipf_s,
            "phases": [list(p) for p in self.phases],
            "deadline_frac": self.deadline_frac,
            "deadline_choices_ms": list(self.deadline_choices_ms),
            "method": self.method,
            "registers": self.registers,
            "banks": self.banks,
            "sample": self.sample,
        }


def build_kernel_pool(config: LoadgenConfig) -> list[str]:
    """Deterministic canonical IR texts, one per pool slot.

    Kernels vary in pair count and trip count so distinct slots get
    distinct content addresses (and thus, usually, distinct shards).
    """
    from ..ir import IRBuilder, print_function

    pool: list[str] = []
    for i in range(config.pool):
        builder = IRBuilder(f"lg_k{i}")
        n_pairs = 3 + (i % 4)
        xs = [builder.const(float(j + 1)) for j in range(n_pairs + 1)]
        acc = builder.const(0.0)
        with builder.loop(trip_count=8 + 2 * i):
            for j in range(n_pairs):
                product = builder.arith("fmul", xs[j], xs[j + 1])
                builder.arith_into(acc, "fadd", acc, product)
        builder.ret(acc)
        pool.append(print_function(builder.finish()))
    return pool


@dataclass
class Arrival:
    """One scheduled request: when, which kernel, what deadline."""

    at_s: float
    kernel: int
    deadline_ms: float | None


def build_schedule(config: LoadgenConfig) -> list[Arrival]:
    """The seeded arrival schedule — same seed, same schedule, always."""
    rng = random.Random(config.seed)
    ranks = range(1, config.pool + 1)
    weights = [1.0 / (rank ** config.zipf_s) for rank in ranks]
    arrivals: list[Arrival] = []
    phases = list(config.phases) or [(1.0, 50.0)]
    phase_index = 0
    phase_end = phases[0][0]
    clock = 0.0
    while len(arrivals) < config.requests:
        rate = max(float(phases[phase_index][1]), 1e-6)
        clock += rng.expovariate(rate)
        while phase_index < len(phases) - 1 and clock > phase_end:
            phase_index += 1
            phase_end += phases[phase_index][0]
        kernel = rng.choices(range(config.pool), weights=weights)[0]
        deadline_ms = None
        if config.deadline_frac > 0 and rng.random() < config.deadline_frac:
            deadline_ms = rng.choice(list(config.deadline_choices_ms))
        arrivals.append(Arrival(clock, kernel, deadline_ms))
    return arrivals


def percentile(sorted_values: list[float], pct: float) -> float | None:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return None
    rank = max(1, int(-(-pct * len(sorted_values) // 100)))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


class RouterTarget:
    """Drive a :class:`~repro.service.shard.ShardRouter` in-process."""

    def __init__(self, router: ShardRouter):
        self.router = router

    def submit(self, body: dict, trace: TraceContext | None = None) -> dict:
        return self.router.submit(body, trace=trace)

    def wait(self, job_id: str, timeout: float) -> dict:
        return self.router.wait(job_id, timeout=timeout)

    def result(self, job_id: str) -> bytes:
        return self.router.result(job_id)

    def stats(self) -> dict:
        return self.router.stats()


class HttpTarget:
    """Drive a running server (single-process or sharded) over HTTP."""

    def __init__(self, client: ServiceClient):
        self.client = client

    def submit(self, body: dict, trace: TraceContext | None = None) -> dict:
        return self.client.submit_request(body, trace=trace)

    def wait(self, job_id: str, timeout: float) -> dict:
        return self.client.wait(job_id, timeout=timeout)

    def result(self, job_id: str) -> bytes:
        return self.client.result(job_id)

    def stats(self) -> dict:
        return self.client.stats()


def run_loadgen(target, config: LoadgenConfig | None = None) -> dict:
    """Replay one seeded scenario against *target*; return the report.

    *target* is a :class:`RouterTarget`, :class:`HttpTarget`, or
    anything with the same ``submit``/``wait``/``result``/``stats``
    quartet.  The report's deterministic fields (``goodput``,
    ``failed``, ``verify_failed``, ``samples``, ``shards``) are what CI
    gates on; its timing fields are informational.
    """
    config = config or LoadgenConfig()
    pool = build_kernel_pool(config)
    schedule = build_schedule(config)
    sampled = []
    for arrival in schedule:
        if arrival.kernel not in sampled:
            sampled.append(arrival.kernel)
        if len(sampled) >= config.sample:
            break
    sampled_set = set(sampled[: config.sample])

    latencies: list[float] = []
    failures: list[str] = []
    counts = {"ok": 0, "failed": 0, "degraded": 0, "shed": 0}
    sample_bytes: dict[int, list[tuple[str, bytes]]] = {}
    slo = SLOTracker()
    stage_samples: dict[str, list[float]] = {}
    trace_ids: list[str] = []

    def one(arrival: Arrival, arrived_mono: float):
        body = {
            "ir": pool[arrival.kernel],
            "file": {"registers": config.registers, "banks": config.banks},
            "method": config.method,
        }
        if arrival.deadline_ms is not None:
            body["deadline_ms"] = arrival.deadline_ms
        # One root context per arrival (telemetry on only), so every
        # request is fetchable end to end via /v1/trace/<trace_id>.
        trace = (
            TraceContext.new(kernel=f"lg_k{arrival.kernel}")
            if TRACER.enabled
            else None
        )
        try:
            if trace is not None:
                status = target.submit(body, trace=trace)
            else:
                status = target.submit(body)
            if status["status"] not in ("done", "failed"):
                status = target.wait(status["job_id"], config.timeout_s)
            if status["status"] != "done":
                return (
                    "failed", arrival, None, status.get("error"), None, trace
                )
            data = None
            if arrival.kernel in sampled_set:
                data = target.result(status["job_id"])
            latency = time.perf_counter() - arrived_mono
            return ("ok", arrival, latency, status, data, trace)
        except (ServiceOverloadError, ServiceError, ShardError) as exc:
            return ("failed", arrival, None, str(exc), None, trace)

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as executor:
        futures = []
        for arrival in schedule:
            now = time.perf_counter() - started
            if arrival.at_s > now:
                time.sleep(arrival.at_s - now)
            # Latency clocks from the *scheduled* arrival, so queueing
            # delay when the fleet falls behind lands in the tail.
            arrived = started + arrival.at_s
            futures.append(executor.submit(one, arrival, arrived))
        for future in futures:
            outcome, arrival, latency, status, data, trace = future.result()
            if trace is not None and len(trace_ids) < 8:
                trace_ids.append(trace.trace_id)
            if outcome != "ok":
                counts["failed"] += 1
                slo.record(ok=False)
                failures.append(str(status)[:200])
                continue
            counts["ok"] += 1
            latencies.append(latency)
            degraded = bool(
                isinstance(status, dict) and status.get("degraded")
            )
            if degraded:
                counts["degraded"] += 1
            slo.record(ok=True, latency_s=latency, good=not degraded)
            if isinstance(status, dict):
                for stage, seconds in (status.get("stages") or {}).items():
                    stage_samples.setdefault(stage, []).append(float(seconds))
            if data is not None:
                served = status.get("served_method") or config.method
                sample_bytes.setdefault(arrival.kernel, []).append(
                    (served, data)
                )
    elapsed = time.perf_counter() - started

    # Bit-identity: every sampled response must equal a direct
    # single-process build at the tier that was served.
    checked = matched = mismatched = 0
    for kernel, responses in sorted(sample_bytes.items()):
        references: dict[str, bytes] = {}
        for served, data in responses:
            if served not in references:
                references[served] = artifact_bytes(
                    build_artifact(
                        pool[kernel],
                        {
                            "registers": config.registers,
                            "banks": config.banks,
                        },
                        served,
                    )
                )
            checked += 1
            if data == references[served]:
                matched += 1
            else:
                mismatched += 1

    stats = {}
    try:
        stats = target.stats()
    except Exception:
        pass
    shards = dict(stats.get("router", {}).get("routed", {}))
    counters = stats.get("counters", {})

    latencies.sort()
    stages_ms: dict[str, dict] = {}
    for stage, values in sorted(stage_samples.items()):
        values.sort()
        stages_ms[stage] = {
            "count": len(values),
            "mean": _ms(sum(values) / len(values)),
            "p99": _ms(percentile(values, 99.0)),
        }
    return {
        "requests": len(schedule),
        "goodput": counts["ok"],
        "failed": counts["failed"],
        "degraded": counts["degraded"],
        "verify_failed": counters.get("verify_failed", 0),
        "cache_hits": counters.get("cache_hits", 0),
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(counts["ok"] / elapsed, 1) if elapsed else None,
        "latency_ms": {
            "p50": _ms(percentile(latencies, 50.0)),
            "p99": _ms(percentile(latencies, 99.0)),
            "p999": _ms(percentile(latencies, 99.9)),
            "max": _ms(latencies[-1] if latencies else None),
        },
        "shards": shards,
        "stages_ms": stages_ms,
        "slo": slo.snapshot(),
        "trace_ids": trace_ids,
        "samples": {
            "kernels": sorted(sampled_set),
            "checked": checked,
            "matched": matched,
            "mismatched": mismatched,
        },
        "failures": failures[:10],
    }


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else round(seconds * 1000.0, 3)


def loadgen_record(
    report: dict, config: LoadgenConfig, label: str = ""
) -> dict:
    """Package a loadgen report as a BENCH history record.

    Same schema version and required fields as
    :func:`~repro.experiments.history.collect_record` (so
    ``load_record`` accepts it), with the scenario fingerprint as the
    config identity and the report under a ``loadgen`` block that
    ``diff_records`` knows how to gate.
    """
    from ..experiments.history import SCHEMA_VERSION

    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config.fingerprint(),
        "programs": {},
        "totals": {},
        "loadgen": report,
    }
