"""The four views over recorded spans: pass statistics, metrics, the
Algorithm-1 decision audit, and the conflict hotspot profile.

Nothing here records.  Producers write into :data:`repro.obs.TRACER`
while it is enabled, and each view folds a list of wire records
(``TRACER.spans``, or the ``spans`` of a ``/v1/trace`` payload):

* ``--pass-stats`` (:func:`pass_table`, :func:`render_pass_stats`) —
  every ``pass`` span carries its analysis-cache ``hits``, ``misses``
  and ``inval`` and its ``d_instrs`` instruction delta; an ``analysis``
  span is one cache miss, and a ``hit:<Analysis>`` or
  ``inval:<Analysis>`` arg counts the cache hits and invalidations made
  while that span was innermost;
* ``--metrics`` (:func:`metrics_doc`, :func:`render_metrics`) — a span
  arg whose name has a dot is one sample of the metric it names (spills,
  copies, RCG size, residual cost, bank pressure, SDG rounds, simulator
  totals): counters add, :data:`HISTOGRAMS` observe, and
  ``prescount.bank_pressure.*`` gauges keep the last value and the
  maximum.  Pass spans add ``pass.seconds.<pass>`` and, with the view
  asked for, ``phase.cost_delta.<pass>``;
* ``--explain`` (:func:`decisions`, :func:`explain`) — one ``decision``
  event per Algorithm 1 work-list node, free-register placement, and
  greedy spill;
* ``--profile`` (:class:`Profile`) — ``sites`` events, each a batch of
  per-site rows a simulator attributed its stall cycles to.

Spans fold in buffer order, which is suite order for a ``--jobs N`` run
(the harness records each program's spans as one trace, merged in suite
order), so a view is the same at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .telemetry import StreamingHistogram

__all__ = [
    "HISTOGRAMS",
    "Profile",
    "SiteStats",
    "decisions",
    "explain",
    "loop_paths",
    "metrics_doc",
    "pass_table",
    "render_metrics",
    "render_pass_stats",
]


# ----------------------------------------------------------------------
# --pass-stats
# ----------------------------------------------------------------------
def pass_table(spans) -> tuple[dict, dict]:
    """``(passes, analyses)``: per pass ``runs``, ``seconds``, ``hits``,
    ``misses``, ``inval`` and ``d_instrs``; per analysis ``hits``,
    ``misses`` and ``inval``."""
    passes: dict[str, dict] = {}
    analyses: dict[str, dict] = {}

    def analysis(name: str) -> dict:
        return analyses.setdefault(name, {"hits": 0, "misses": 0, "inval": 0})

    for span in spans:
        args = span["args"]
        if span["cat"] == "pass":
            row = passes.setdefault(span["name"], {
                "runs": 0, "seconds": 0.0, "hits": 0, "misses": 0,
                "inval": 0, "d_instrs": 0,
            })
            row["runs"] += 1
            row["seconds"] += span["dur"]
            for column in ("hits", "misses", "inval", "d_instrs"):
                row[column] += args.get(column, 0)
        elif span["cat"] == "analysis":
            analysis(span["name"])["misses"] += 1
        for key, value in args.items():
            kind, colon, name = key.partition(":")
            if colon and kind in ("hit", "inval"):
                analysis(name)["hits" if kind == "hit" else "inval"] += value
    return passes, analyses


def render_pass_stats(spans) -> str:
    """The ``--pass-stats`` tables: passes by time, analyses by name."""
    passes, analyses = pass_table(spans)
    lines = ["pass statistics"]
    if passes:
        lines.append(
            f"  {'pass':<18} {'runs':>6} {'seconds':>9} {'hits':>7} "
            f"{'misses':>7} {'inval':>7} {'d-instrs':>9}"
        )
        for name, p in sorted(passes.items(), key=lambda kv: -kv[1]["seconds"]):
            lines.append(
                f"  {name:<18} {p['runs']:>6} {p['seconds']:>9.3f} "
                f"{p['hits']:>7} {p['misses']:>7} "
                f"{p['inval']:>7} {p['d_instrs']:>+9}"
            )
    else:
        lines.append("  (no passes recorded)")
    lines.append("analysis cache")
    if analyses:
        lines.append(
            f"  {'analysis':<18} {'hits':>7} {'misses':>7} "
            f"{'inval':>7} {'hit rate':>9}"
        )
        for name, a in sorted(analyses.items()):
            requests = a["hits"] + a["misses"]
            rate = a["hits"] / requests if requests else 0.0
            lines.append(
                f"  {name:<18} {a['hits']:>7} {a['misses']:>7} "
                f"{a['inval']:>7} {rate:>8.1%}"
            )
    else:
        lines.append("  (no analyses recorded)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# --metrics
# ----------------------------------------------------------------------
#: Dotted span args the metrics view observes as histograms.
HISTOGRAMS = frozenset({
    "alloc.max_pressure",
    "coalescing.rounds",
    "prescount.residual_cost",
    "sdg.rounds",
    "sim.dsa_cycles",
    "sim.ooo_cycles",
    "subgroup.components",
})

_GAUGE_PREFIX = "prescount.bank_pressure."


def metrics_doc(spans) -> dict:
    """The ``--metrics out.json`` document: ``counters`` (name ->
    total), ``gauges`` (``value`` last seen, ``max``, ``samples``) and
    ``histograms`` (count, total, min, max, mean, power-of-two
    buckets)."""
    counters: dict[str, float] = {}
    gauges: dict[str, dict] = {}
    histograms: dict[str, StreamingHistogram] = {}

    def observe(name: str, value: float) -> None:
        hist = histograms.get(name)
        if hist is None:
            hist = histograms[name] = StreamingHistogram()
        hist.observe(value)

    for span in spans:
        args = span["args"]
        if span["cat"] == "pass":
            observe(f"pass.seconds.{span['name']}", span["dur"])
            if "cost_delta" in args:
                observe(f"phase.cost_delta.{span['name']}", args["cost_delta"])
        for key, value in args.items():
            if "." not in key or isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            if key in HISTOGRAMS:
                observe(key, value)
            elif key.startswith(_GAUGE_PREFIX):
                gauge = gauges.setdefault(
                    key, {"value": 0.0, "max": value, "samples": 0}
                )
                gauge["value"] = value
                gauge["max"] = max(gauge["max"], value)
                gauge["samples"] += 1
            else:
                counters[key] = counters.get(key, 0) + value
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": {n: h.summary() for n, h in histograms.items()},
    }


def render_metrics(doc: dict) -> str:
    """Human-readable :func:`metrics_doc` (for ``--metrics -``)."""
    lines = ["metrics"]
    if doc["counters"]:
        lines.append("  counters")
        for name, value in sorted(doc["counters"].items()):
            lines.append(f"    {name:<40} {value:g}")
    if doc["gauges"]:
        lines.append("  gauges (last / max)")
        for name, g in sorted(doc["gauges"].items()):
            lines.append(f"    {name:<40} {g['value']:g} / {g['max']:g}")
    if doc["histograms"]:
        lines.append("  histograms (count / mean / min / max)")
        for name, h in sorted(doc["histograms"].items()):
            lines.append(
                f"    {name:<40} {h['count']} / {h['mean']:g} / "
                f"{h['min']:g} / {h['max']:g}"
            )
    if len(lines) == 1:
        lines.append("  (nothing recorded)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# --explain
# ----------------------------------------------------------------------
def decisions(spans, vreg: str | None = None,
              function: str | None = None) -> list[dict]:
    """The ``decision`` events' records, oldest first: ``function``,
    ``vreg``, ``step`` (``rcg-color``, ``free-balance`` or ``spill``),
    ``path``, ``chosen`` bank (``-1`` when none) and ``detail``."""
    return [
        span["args"]
        for span in spans
        if span["name"] == "decision" and span["cat"] == "event"
        and (vreg is None or span["args"]["vreg"] == vreg)
        and (function is None or span["args"]["function"] == function)
    ]


def _render_decision(record: dict) -> str:
    path, chosen = record["path"], record["chosen"]
    lines = [f"{record['vreg']} [{record['function']}] {record['step']}"
             + (f" via {path}" if path else "")
             + (f" -> bank {chosen}" if chosen >= 0 else "")]
    for key, value in record["detail"].items():
        if key == "candidates":
            lines.append("    candidates (best first):")
            for cand in value:
                keys = ", ".join(
                    f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in cand.items()
                    if k != "bank"
                )
                lines.append(f"      bank {cand['bank']}: {keys}")
        else:
            lines.append(f"    {key} = {value}")
    return "\n".join(lines)


def explain(spans, vreg: str, function: str | None = None) -> str:
    """Human-readable decision history of one virtual register."""
    records = decisions(spans, vreg, function)
    if not records:
        scope = f" in function {function!r}" if function else ""
        return f"no recorded decisions for {vreg!r}{scope}"
    return "\n".join(_render_decision(r) for r in records)


# ----------------------------------------------------------------------
# --profile
# ----------------------------------------------------------------------
def loop_paths(function) -> dict[str, tuple[str, ...]]:
    """Block label -> enclosing loop headers, outermost first.

    One :class:`~repro.ir.loops.LoopInfo` build per call; producers call
    this once per profiled function, only while the profile view is on.
    """
    from ..ir.loops import LoopInfo

    info = LoopInfo.build(function)
    paths: dict[str, tuple[str, ...]] = {}
    for block in function.blocks:
        chain = info.enclosing_loops(block.label)  # innermost first
        paths[block.label] = tuple(loop.header for loop in reversed(chain))
    return paths


@dataclass
class SiteStats:
    """What one site cost: hazard events (``conflicts``), stall
    ``cycles``, and ``executions`` of the instruction itself."""

    conflicts: float = 0.0
    cycles: float = 0.0
    executions: float = 0.0


class Profile:
    """Per-site hazard attribution folded from ``sites`` events.

    A site is ``(function, loop-nest path, block, instruction index,
    opcode, detail)``; the detail names the hardware resource — the
    conflicting bank and register pair (``bank1($fp1,$fp9)``), the
    misaligned subgroups (``align(sg0|sg2)``) — or is empty for pure
    execution heat.  Each row of a ``sites`` event is that key followed
    by its conflicts, cycles and executions.
    """

    def __init__(self, spans=()):
        self.sites: dict[tuple, SiteStats] = {}
        for span in spans:
            if span["name"] != "sites" or span["cat"] != "event":
                continue
            for (func, loops, block, index, opcode, detail,
                 conflicts, cycles, executions) in span["args"]["rows"]:
                key = (func, tuple(loops), block, index, opcode, detail)
                stats = self.sites.get(key)
                if stats is None:
                    stats = self.sites[key] = SiteStats()
                stats.conflicts += conflicts
                stats.cycles += cycles
                stats.executions += executions

    def __len__(self) -> int:
        return len(self.sites)

    def total_cycles(self) -> float:
        return sum(s.cycles for s in self.sites.values())

    def total_conflicts(self) -> float:
        return sum(s.conflicts for s in self.sites.values())

    def top(self, n: int = 10, by: str = "cycles") -> list[tuple]:
        """The *n* costliest sites, deterministically ordered (value
        descending, then site key)."""
        items = sorted(self.sites.items(),
                       key=lambda kv: (-getattr(kv[1], by), kv[0]))
        return items[:n]

    @staticmethod
    def _site_label(key: tuple) -> str:
        func, loops, block, index, opcode, detail = key
        nest = "/".join(loops) if loops else "-"
        label = f"{func}:{block}#{index} {opcode}"
        if detail:
            label += f" {detail}"
        return f"{label}  [{nest}]"

    def render(self, n: int = 20) -> str:
        """Human-readable top-N hotspot table (for ``--profile -``)."""
        total = self.total_cycles()
        lines = [
            "conflict hotspots "
            f"({len(self.sites)} sites, {total:g} attributed stall cycles)",
            f"  {'cycles':>10}  {'share':>6}  {'events':>8}  site",
        ]
        for key, stats in self.top(n):
            share = stats.cycles / total if total else 0.0
            lines.append(
                f"  {stats.cycles:10g}  {share:6.1%}  {stats.conflicts:8g}  "
                f"{self._site_label(key)}"
            )
        if len(self.sites) > n:
            lines.append(f"  ... {len(self.sites) - n} cooler sites elided")
        if not self.sites:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)

    def folded_stacks(self, by: str = "cycles") -> str:
        """Flamegraph-compatible collapsed stacks, keyed by loop nest:
        one ``function;loop;...;block;opcode#i[detail] <value>`` line per
        site with a positive (integer-rounded) value."""
        lines = []
        for key, stats in sorted(self.sites.items()):
            value = round(getattr(stats, by))
            if value <= 0:
                continue
            func, loops, block, index, opcode, detail = key
            frames = [func, *loops, block,
                      f"{opcode}#{index}" + (f"[{detail}]" if detail else "")]
            lines.append(f"{';'.join(frames)} {value}")
        return "\n".join(lines)

    def annotate(self, function) -> str:
        """IR listing of *function* with per-instruction stall
        annotations; several details on one instruction merge into one
        trailing comment."""
        from ..ir.printer import print_function

        per_instr: dict[tuple[str, int], list] = {}
        for key, stats in self.sites.items():
            if key[0] == function.name:
                per_instr.setdefault((key[2], key[3]), []).append((key, stats))
        annotations: dict[tuple[str, int], str] = {}
        for loc, entries in per_instr.items():
            entries.sort(key=lambda kv: (-kv[1].cycles, kv[0]))
            cycles = sum(s.cycles for __, s in entries)
            executions = max(s.executions for __, s in entries)
            details = [key[5] for key, __ in entries if key[5]]
            parts = []
            if cycles:
                parts.append(f"{cycles:g} stall cycles")
            if details:
                parts.append(", ".join(details))
            if executions:
                parts.append(f"{executions:g} exec")
            if parts:
                annotations[loc] = "; ".join(parts)
        return print_function(function, annotations=annotations)

    def to_json(self) -> dict:
        """The ``--profile out.json`` document (schema-versioned)."""
        items = sorted(self.sites.items())
        return {
            "schema": 1,
            "total_cycles": sum(s.cycles for __, s in items),
            "total_conflicts": sum(s.conflicts for __, s in items),
            "sites": [
                {
                    "function": key[0],
                    "loops": list(key[1]),
                    "block": key[2],
                    "instr": key[3],
                    "opcode": key[4],
                    "detail": key[5],
                    "conflicts": stats.conflicts,
                    "cycles": stats.cycles,
                    "executions": stats.executions,
                }
                for key, stats in items
            ],
        }
