"""Metric names, seeded input helpers and the per-run outcome record."""

from __future__ import annotations

import math
import random
import re
import resource
from dataclasses import dataclass, field

#: End-to-end metrics every workload reports with tracing off: name -> unit.
#: Each is measured on every workload (see README.md for what a "unit of
#: work" is on each one), so a change to any layer is judged on all three.
#: Times are CPU time scaled to a reference speed (speed.py): on a shared
#: host, wall time and even CPU time move with the other tenants' load
#: (README.md, "Why reference-speed CPU time").
E2E_METRICS = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "static_conflicts_bpc": "count",
    "spill_copy_instrs_bpc": "count",
    "cycles_bpc": "cycles",
}

PASSES = ("coalescing", "sdg-split", "scheduling", "bank-assignment", "allocation")
ANALYSES = (
    "CFG", "FlatIR", "SlotIndexes", "Liveness", "LoopInfo",
    "LiveIntervals", "ConflictCost", "ConflictGraph", "Interference", "SDG",
)
SERVICE_LAYERS = {
    "artifact.normalize.ms": "ms",
    "http.submit.hit.ms": "ms",
    "http.submit.miss.ms": "ms",
    "http.poll.ms": "ms",
    "http.result.ms": "ms",
    "client.polls_per_miss": "count",
    "router.hit_overhead.ms": "ms",
    "queue.stage.cache.ms": "ms",
    "queue.stage.queue_wait.ms": "ms",
    "queue.stage.alloc.ms": "ms",
    "queue.stage.verify.ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.requests": "count",
    "queue.coalesced": "count",
    "journal.frames_per_miss": "count",
    "verifier.strict.ms": "ms",
}

#: Per-layer metrics the traced run reports: name -> unit.  A workload
#: that bypasses a layer reports 0 for it (the bypass controls).
LAYER_METRICS = {
    **{f"pass.{p}.self_s": "s" for p in PASSES},
    **{f"pass.{p}.invalidations": "count" for p in PASSES},
    **{
        f"analysis.{a}.{kind}": unit
        for a in ANALYSES
        for kind, unit in (("hit_ratio", "ratio"), ("requests", "count"))
    },
    "ir.parse.self_s": "s",
    "ir.print.self_s": "s",
    "ir.clone.self_s": "s",
    "sim.static.self_s": "s",
    "sim.dynamic.self_s": "s",
    "sim.dsa.self_s": "s",
    "sim.ooo.self_s": "s",
    **SERVICE_LAYERS,
    "trace.overhead_pct": "%",
    "ledger.unattributed_pct": "%",
}

#: Largest share of the traced wall the ledger may leave unattributed.
LEDGER_TOLERANCE = 0.05

_VREG = re.compile(r"%v(\d+)")


def relabel(text: str, rng: random.Random) -> str:
    """Permute the virtual-register numbers of printed IR.

    The program is unchanged up to renaming, so allocation quality moves
    only where the allocator breaks ties by register number.
    """
    ids = sorted({int(n) for n in _VREG.findall(text)})
    shuffled = ids[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(ids, shuffled))
    return _VREG.sub(lambda m: f"%v{mapping[int(m.group(1))]}", text)


def rename(text: str, suffix: str) -> str:
    """Append *suffix* to the function name, giving a new content address."""
    head, rest = text.split(" {", 1)
    return f"{head}{suffix} {{{rest}"


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Gated end-to-end metrics (tracing off): name -> value.
    e2e: dict[str, float] = field(default_factory=dict)
    #: The workload's own metrics under their descriptive names:
    #: name -> (value, unit).  Printed in the report.
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics of the traced run: name -> value.
    layers: dict[str, float] = field(default_factory=dict)
    #: Ledger rows (layer, self seconds) of the traced run.
    ledger: list[tuple[str, float]] = field(default_factory=list)
    ledger_wall_s: float = 0.0
    notes: list[str] = field(default_factory=list)
    #: The traced run's spans (a ``spans.SpanLog``), written out at exit.
    spans: object = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; a failed one is recorded."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0
