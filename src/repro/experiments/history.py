"""Benchmark regression observatory: schema-versioned history records.

Every measured quantity in this reproduction is deterministic for a fixed
config fingerprint (scales, seed, IDFT size) — reruns produce bit-equal
numbers.  That makes longitudinal regression tracking trivial *if* the
numbers are written down: :func:`collect_record` runs the canonical
combination matrix (the same (suite, platform, banks, method) cells the
paper tables consume) and captures per-program conflicts, cycles, spills,
copies and Reles plus the config fingerprint and wall time; records land
as ``BENCH_<timestamp>.json`` under ``benchmarks/results/history/``.

:func:`diff_records` compares two records metric-by-metric, flagging
deltas beyond a configurable relative threshold (with an absolute floor
to ignore 1-conflict jitter on tiny programs).  The CLI front-end,
``repro bench diff old new``, exits non-zero on regression so CI can gate
on it: exit 0 = clean, 1 = regression, 2 = schema or config mismatch
(records that are not comparable).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from .harness import ExperimentContext

#: Bump when the record layout changes incompatibly.  ``load_record``
#: refuses mismatched schemas rather than mis-diffing them.
SCHEMA_VERSION = 1

#: Default location for history records, relative to the repo root.
DEFAULT_HISTORY_DIR = os.path.join("benchmarks", "results", "history")

#: The canonical combination matrix — the cells the paper tables read.
#: RV#2 carries the dynamic-conflict estimate, the DSA carries cycles
#: (``dsa:0`` is the 2x4 bank-subgroup file the bpc method targets).
CANONICAL_COMBOS: tuple[tuple[str, str, int, str], ...] = (
    ("SPECfp", "rv2", 2, "non"),
    ("SPECfp", "rv2", 2, "bcr"),
    ("SPECfp", "rv2", 2, "bpc"),
    ("CNN-KERNEL", "rv2", 2, "non"),
    ("CNN-KERNEL", "rv2", 2, "bcr"),
    ("CNN-KERNEL", "rv2", 2, "bpc"),
    ("DSA-OP", "dsa", 2, "non"),
    ("DSA-OP", "dsa", 0, "bpc"),
)

#: Per-program metrics recorded and diffed.  All are higher-is-worse
#: except ``reles``, which is structural: a reles change means the
#: workload itself changed, reported separately from regressions.
METRICS: tuple[str, ...] = (
    "reles",
    "static_conflicts",
    "dynamic_conflicts",
    "spills",
    "copies",
    "cycles",
)
REGRESSION_METRICS: tuple[str, ...] = tuple(m for m in METRICS if m != "reles")


class RecordError(ValueError):
    """A history record is unreadable or not comparable."""


def _latency_kernel(name: str = "latency_probe", trip_count: int = 64):
    """Deterministic ~250-instruction loop kernel for latency probes."""
    from ..ir import IRBuilder

    builder = IRBuilder(name)
    xs = [builder.const(float(i + 1)) for i in range(8)]
    acc = builder.const(0.0)
    with builder.loop(trip_count=trip_count):
        vals = list(xs)
        for i in range(120):
            value = builder.arith(
                "fmul", vals[i % len(vals)], vals[(i + 3) % len(vals)]
            )
            vals.append(value)
            if len(vals) > 24:
                vals.pop(0)
            builder.arith_into(acc, "fadd", acc, value)
    builder.ret(acc)
    return builder.finish()


def _best_of(fn, rounds: int) -> float:
    """Best-of-*rounds* wall time of ``fn()`` in seconds."""
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_wall_latency(rounds: int = 3) -> dict:
    """Single-request wall latency in ms: ``flat_ms`` (one bare build)
    and ``incremental_ms`` (warm module rebuild with one of four
    functions changed).

    Informational only — timing is machine-dependent, so
    :func:`diff_records` reports latency movement but never gates on it.
    """
    from ..ir import print_function, print_module
    from ..ir.function import Module
    from ..service.artifact import build_artifact, build_module_artifact
    from ..service.cache import AllocationCache

    spec = {"registers": 32, "banks": 4}
    ir = print_function(_latency_kernel())
    flat = _best_of(lambda: build_artifact(ir, spec, "bpc"), rounds)

    def _module(changed: bool) -> str:
        module = Module("latency_probe_mod")
        for i in range(4):
            # A different trip count changes only probe0.
            trips = 32 if (i == 0 and changed) else 64
            module.add(_latency_kernel(f"probe{i}", trip_count=trips))
        return print_module(module)

    store = AllocationCache(None)
    build_module_artifact(_module(False), spec, "bpc", store=store)
    incremental = _best_of(
        lambda: build_module_artifact(_module(True), spec, "bpc", store=store),
        1,
    )
    return {
        "flat_ms": round(flat * 1000.0, 3),
        "incremental_ms": round(incremental * 1000.0, 3),
    }


def _config_fingerprint(ctx: ExperimentContext) -> dict:
    return {
        "spec_scale": ctx.spec_scale,
        "cnn_scale": ctx.cnn_scale,
        "idft_points": ctx.idft_points,
        "seed": ctx.seed,
    }


def collect_record(
    ctx: ExperimentContext, label: str = "", *, measure_latency: bool = True
) -> dict:
    """Run the canonical matrix and return one history record (a dict).

    Results are memoized on *ctx*, so collecting after regenerating
    tables from the same context costs nothing extra.  ``measure_latency``
    adds the ``latency`` block (flat/incremental wall ms); disable it
    for timing-free unit runs.
    """
    start = time.monotonic()
    programs: dict[str, dict] = {}
    for suite, platform, banks, method in CANONICAL_COMBOS:
        for result in ctx.results(suite, platform, banks, method):
            key = f"{suite}/{platform}:{banks}/{method}/{result.program}"
            programs[key] = {
                "reles": result.conflict_relevant,
                "static_conflicts": result.static_conflicts,
                "dynamic_conflicts": result.dynamic_conflicts,
                "spills": result.spills,
                "copies": result.copies_inserted,
                "cycles": result.cycles,
            }
    totals = {
        metric: sum(
            entry[metric] for entry in programs.values()
            if entry[metric] is not None
        )
        for metric in METRICS
    }
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": _config_fingerprint(ctx),
        "wall_seconds": round(time.monotonic() - start, 3),
        "latency": measure_wall_latency() if measure_latency else None,
        "programs": programs,
        "totals": totals,
    }


def write_record(
    record: dict,
    directory: str = DEFAULT_HISTORY_DIR,
    *,
    prefix: str = "BENCH",
) -> str:
    """Write *record* as ``<prefix>_<timestamp>.json`` under *directory*.

    ``repro bench record`` uses the default ``BENCH`` prefix; ``repro
    loadgen --record`` writes ``LOADGEN_…`` records into the same
    history directory (same schema, so ``load_record`` reads both).
    """
    os.makedirs(directory, exist_ok=True)
    stamp = record.get("created", "").replace(":", "").replace("-", "")
    stamp = stamp.replace("T", "-").rstrip("Z") or "unstamped"
    path = os.path.join(directory, f"{prefix}_{stamp}.json")
    # Never clobber: same-second collections get a disambiguating suffix.
    serial = 1
    while os.path.exists(path):
        serial += 1
        path = os.path.join(directory, f"{prefix}_{stamp}.{serial}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_record(path: str) -> dict:
    """Read and validate one history record."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RecordError(f"{path}: unreadable record: {exc}") from exc
    if not isinstance(record, dict) or "schema" not in record:
        raise RecordError(f"{path}: not a history record (no schema field)")
    if record["schema"] != SCHEMA_VERSION:
        raise RecordError(
            f"{path}: schema {record['schema']} != supported {SCHEMA_VERSION}"
        )
    for required in ("config", "programs", "totals"):
        if required not in record:
            raise RecordError(f"{path}: record missing {required!r}")
    return record


@dataclass
class Delta:
    """One metric change between two records."""

    key: str
    metric: str
    old: float
    new: float

    @property
    def pct(self) -> float:
        if self.old == 0:
            return float("inf") if self.new else 0.0
        return (self.new - self.old) / self.old * 100.0

    def render(self) -> str:
        pct = self.pct
        pct_text = f"{pct:+.1f}%" if pct != float("inf") else "new"
        return (
            f"{self.key} {self.metric}: "
            f"{self.old:g} -> {self.new:g} ({pct_text})"
        )


@dataclass
class DiffReport:
    """Outcome of comparing two history records."""

    old_path: str
    new_path: str
    threshold_pct: float
    abs_floor: float
    config_mismatches: list[str] = field(default_factory=list)
    structural: list[str] = field(default_factory=list)
    regressions: list[Delta] = field(default_factory=list)
    improvements: list[Delta] = field(default_factory=list)
    #: Wall-latency movement (flat/incremental ms).  Informational:
    #: timing is machine-dependent, so it never affects the exit code.
    latency_notes: list[str] = field(default_factory=list)
    compared: int = 0

    @property
    def comparable(self) -> bool:
        return not self.config_mismatches

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def exit_code(self) -> int:
        if not self.comparable:
            return 2
        return 1 if self.has_regressions else 0

    def render(self) -> str:
        lines = [
            f"bench diff: {self.old_path} -> {self.new_path}",
            f"  threshold {self.threshold_pct:g}% "
            f"(absolute floor {self.abs_floor:g}), "
            f"{self.compared} metrics compared",
        ]
        if self.config_mismatches:
            lines.append("  NOT COMPARABLE — config fingerprint differs:")
            lines.extend(f"    {m}" for m in self.config_mismatches)
            return "\n".join(lines)
        for title, deltas in (
            ("regressions", self.regressions),
            ("improvements", self.improvements),
        ):
            lines.append(f"  {title}: {len(deltas)}")
            lines.extend(f"    {d.render()}" for d in deltas)
        if self.structural:
            lines.append(f"  structural changes: {len(self.structural)}")
            lines.extend(f"    {s}" for s in self.structural)
        if self.latency_notes:
            lines.append("  wall latency (informational, never gates):")
            lines.extend(f"    {s}" for s in self.latency_notes)
        lines.append(
            "  RESULT: "
            + ("REGRESSION" if self.has_regressions else "ok")
        )
        return "\n".join(lines)


def diff_records(
    old: dict,
    new: dict,
    *,
    old_path: str = "<old>",
    new_path: str = "<new>",
    threshold_pct: float = 5.0,
    abs_floor: float = 1.0,
    allow_config_mismatch: bool = False,
) -> DiffReport:
    """Compare two records; deltas beyond both the relative threshold and
    the absolute floor count as regressions (higher) or improvements
    (lower).  ``reles`` changes and program set churn are *structural* —
    the workload itself moved — and are reported but never gate."""
    report = DiffReport(
        old_path=old_path,
        new_path=new_path,
        threshold_pct=threshold_pct,
        abs_floor=abs_floor,
    )
    if old.get("config") != new.get("config") and not allow_config_mismatch:
        old_config = old.get("config", {})
        new_config = new.get("config", {})
        for name in sorted(set(old_config) | set(new_config)):
            if old_config.get(name) != new_config.get(name):
                report.config_mismatches.append(
                    f"{name}: {old_config.get(name)!r} != "
                    f"{new_config.get(name)!r}"
                )
        return report
    old_programs = old.get("programs", {})
    new_programs = new.get("programs", {})
    for key in sorted(set(old_programs) - set(new_programs)):
        report.structural.append(f"removed: {key}")
    for key in sorted(set(new_programs) - set(old_programs)):
        report.structural.append(f"added: {key}")
    for key in sorted(set(old_programs) & set(new_programs)):
        old_entry, new_entry = old_programs[key], new_programs[key]
        if old_entry.get("reles") != new_entry.get("reles"):
            report.structural.append(
                f"reles changed: {key} "
                f"{old_entry.get('reles')} -> {new_entry.get('reles')}"
            )
        for metric in REGRESSION_METRICS:
            old_value = old_entry.get(metric)
            new_value = new_entry.get(metric)
            if old_value is None or new_value is None:
                continue
            report.compared += 1
            change = new_value - old_value
            bar = max(abs(old_value) * threshold_pct / 100.0, abs_floor)
            if change >= bar:
                report.regressions.append(
                    Delta(key, metric, old_value, new_value)
                )
            elif -change >= bar:
                report.improvements.append(
                    Delta(key, metric, old_value, new_value)
                )
    _diff_loadgen(old, new, report, threshold_pct, abs_floor)
    report.regressions.sort(key=lambda d: (-abs(d.pct), d.key, d.metric))
    report.improvements.sort(key=lambda d: (-abs(d.pct), d.key, d.metric))
    old_latency = old.get("latency") or {}
    new_latency = new.get("latency") or {}
    for name in ("flat_ms", "incremental_ms"):
        old_value, new_value = old_latency.get(name), new_latency.get(name)
        if old_value is None or new_value is None:
            continue
        report.latency_notes.append(
            f"{name}: {old_value:g} -> {new_value:g}"
        )
    return report


def _diff_loadgen(
    old: dict,
    new: dict,
    report: DiffReport,
    threshold_pct: float,
    abs_floor: float,
) -> None:
    """Gate the ``loadgen`` blocks of two records, if both carry one.

    Only the deterministic counts gate (see
    :mod:`repro.service.loadgen`): a ``goodput`` drop or a ``failed``
    rise beyond the threshold, *any* new ``verify_failed``, and *any*
    sample bit-identity ``mismatched`` are regressions.  Shard-balance
    churn is structural (the fleet layout changed, like a program-set
    change).  Latency percentiles, throughput, and the degraded count
    are timing-dependent and land in the informational latency notes —
    the same never-gates rule the wall-latency block follows.
    """
    old_load = old.get("loadgen")
    new_load = new.get("loadgen")
    if not isinstance(old_load, dict) or not isinstance(new_load, dict):
        return
    goodput_old = old_load.get("goodput")
    goodput_new = new_load.get("goodput")
    if goodput_old is not None and goodput_new is not None:
        report.compared += 1
        bar = max(abs(goodput_old) * threshold_pct / 100.0, abs_floor)
        drop = goodput_old - goodput_new
        if drop >= bar:
            report.regressions.append(
                Delta("loadgen", "goodput", goodput_old, goodput_new)
            )
        elif -drop >= bar:
            report.improvements.append(
                Delta("loadgen", "goodput", goodput_old, goodput_new)
            )
    for metric, any_increase in (
        ("failed", False),
        ("verify_failed", True),
    ):
        old_value = old_load.get(metric)
        new_value = new_load.get(metric)
        if old_value is None or new_value is None:
            continue
        report.compared += 1
        change = new_value - old_value
        bar = (
            1.0
            if any_increase
            else max(abs(old_value) * threshold_pct / 100.0, abs_floor)
        )
        if change >= bar:
            report.regressions.append(
                Delta("loadgen", metric, old_value, new_value)
            )
        elif -change >= bar:
            report.improvements.append(
                Delta("loadgen", metric, old_value, new_value)
            )
    mismatched = (new_load.get("samples") or {}).get("mismatched")
    if mismatched:
        report.compared += 1
        old_mismatched = (old_load.get("samples") or {}).get("mismatched", 0)
        report.regressions.append(
            Delta("loadgen", "sample_mismatched", old_mismatched, mismatched)
        )
    old_shards = old_load.get("shards") or {}
    new_shards = new_load.get("shards") or {}
    if sorted(old_shards) != sorted(new_shards):
        report.structural.append(
            f"loadgen shard set changed: {sorted(old_shards)} -> "
            f"{sorted(new_shards)}"
        )
    elif old_shards != new_shards:
        report.structural.append(
            "loadgen shard balance changed: "
            + ", ".join(
                f"{name} {old_shards[name]}->{new_shards[name]}"
                for name in sorted(old_shards)
                if old_shards[name] != new_shards[name]
            )
        )
    old_lat = old_load.get("latency_ms") or {}
    new_lat = new_load.get("latency_ms") or {}
    for name in ("p50", "p99", "p999"):
        old_value, new_value = old_lat.get(name), new_lat.get(name)
        if old_value is None or new_value is None:
            continue
        report.latency_notes.append(
            f"loadgen {name}_ms: {old_value:g} -> {new_value:g}"
        )
    for name in ("throughput_rps", "degraded"):
        old_value, new_value = old_load.get(name), new_load.get(name)
        if old_value is None or new_value is None:
            continue
        report.latency_notes.append(
            f"loadgen {name}: {old_value:g} -> {new_value:g}"
        )
