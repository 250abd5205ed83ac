"""Fleet-wide telemetry: live metrics, events, and SLOs.

A batch run records spans into the one recorder,
:data:`repro.obs.TRACER`, and folds its views (pass statistics,
metrics, audit, profile — :mod:`repro.obs.views`) from them at exit.
This module adds the live aggregates the service and the sharded fleet
serve while they run.

* :class:`StreamingHistogram` / :class:`RingSeries` — O(1)-per-sample
  aggregates cheap enough for the request hot path; the histogram keeps
  power-of-two buckets (``math.frexp``) instead of scanning bound
  arrays.
* :func:`render_prometheus` / :func:`parse_prometheus` — text
  exposition for ``GET /v1/metrics`` plus a parser so tests and CI can
  round-trip the output without external dependencies.
* :data:`EVENTS` (:class:`EventLog`) — a JSONL file, one line per
  finished request (trace id, shard, tiers, stage timings, cache
  disposition).
* :class:`SLOTracker` — availability / p99 latency / goodput targets
  with error-budget burn, surfaced in ``/v1/stats`` and ``repro top``.

Everything here is stdlib-only and never changes a result.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from collections import deque

#: Slots of a :class:`RingSeries`, each :data:`RING_WIDTH_S` seconds wide.
RING_SLOTS = 120
RING_WIDTH_S = 1.0

#: :class:`SLOTracker` targets, and the latencies its percentiles read.
AVAILABILITY_TARGET = 0.999
P99_MS_TARGET = 500.0
GOODPUT_TARGET = 0.99
SLO_WINDOW = 2048

__all__ = [
    "EVENTS",
    "EventLog",
    "RingSeries",
    "SLOTracker",
    "StreamingHistogram",
    "parse_prometheus",
    "prometheus_name",
    "render_prometheus",
]

# ---------------------------------------------------------------------------
# Streaming aggregates


_UNDERFLOW_EXP = -1075  # everything <= 0 lands here (frexp needs v > 0)


class StreamingHistogram:
    """Count/sum/min/max plus power-of-two buckets in O(1) per sample.

    ``math.frexp(v)[1]`` is the bucket key — no bound-array scan, no
    allocation on the hot path — which is what lets per-stage latency
    recording stay inside the service's ≤5 % overhead budget.  Bucket
    upper bounds are ``2.0**exp``, rendered cumulatively for Prometheus.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: "dict[int, int]" = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        exp = math.frexp(value)[1] if value > 0.0 else _UNDERFLOW_EXP
        buckets = self.buckets
        buckets[exp] = buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {str(exp): n for exp, n in sorted(self.buckets.items())},
        }


class RingSeries:
    """A ring of :data:`RING_SLOTS` per-interval buckets for windowed
    rates.

    Fixed memory, O(1) :meth:`add`; stale slots are lazily zeroed when
    the ring wraps, so an idle series costs nothing.  Not internally
    locked — owners (:class:`SLOTracker`) serialize access.
    """

    __slots__ = ("_values", "_stamps")

    def __init__(self):
        self._values = [0.0] * RING_SLOTS
        self._stamps = [-1] * RING_SLOTS

    def _slot(self, now: float) -> int:
        stamp = int(now / RING_WIDTH_S)
        index = stamp % len(self._stamps)
        if self._stamps[index] != stamp:
            self._stamps[index] = stamp
            self._values[index] = 0.0
        return index

    def add(self, value: float = 1.0, now: float | None = None) -> None:
        now = time.time() if now is None else now
        self._values[self._slot(now)] += value

    def total(self, window_s: float = 60.0, now: float | None = None) -> float:
        now = time.time() if now is None else now
        oldest = int((now - window_s) / RING_WIDTH_S)
        newest = int(now / RING_WIDTH_S)
        return sum(
            value
            for value, stamp in zip(self._values, self._stamps)
            if oldest < stamp <= newest
        )

    def rate(self, window_s: float = 60.0, now: float | None = None) -> float:
        return self.total(window_s, now) / window_s if window_s > 0 else 0.0


# ---------------------------------------------------------------------------
# Prometheus text exposition


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})?\s+(\S+)$"
)
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def prometheus_name(name: str) -> str:
    """``service.queue.depth`` → ``repro_service_queue_depth``."""

    flat = _PROM_BAD.sub("_", name)
    return flat if flat.startswith("repro_") else f"repro_{flat}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{str(val)}"' for key, val in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(samples) -> str:
    """Render ``[(labels, sample), ...]`` as Prometheus text exposition.

    Each *sample* is the ``{"counters": .., "gauges": .., "histograms":
    ..}`` shape produced by ``AllocationService.metrics_sample()`` (the
    same shape as a ``--metrics`` document, ``repro.obs.views.
    metrics_doc``); *labels* (e.g. ``{"shard": "s0"}``) distinguish fleet
    members while keeping one family per metric name.  The pairs are
    what a server backend's ``metrics_samples()`` returns.
    """

    counters: "dict[str, list]" = {}
    gauges: "dict[str, list]" = {}
    histograms: "dict[str, list]" = {}
    for labels, sample in samples:
        labels = labels or {}
        for name, value in (sample.get("counters") or {}).items():
            counters.setdefault(name, []).append((labels, value))
        for name, value in (sample.get("gauges") or {}).items():
            if isinstance(value, dict):
                value = value.get("value", 0.0)
            gauges.setdefault(name, []).append((labels, value))
        for name, summary in (sample.get("histograms") or {}).items():
            histograms.setdefault(name, []).append((labels, summary))
    lines = []
    for name in sorted(counters):
        family = prometheus_name(name)
        if not family.endswith("_total"):
            family += "_total"
        lines.append(f"# TYPE {family} counter")
        for labels, value in counters[name]:
            lines.append(f"{family}{_prom_labels(labels)} {_prom_value(value)}")
    for name in sorted(gauges):
        family = prometheus_name(name)
        lines.append(f"# TYPE {family} gauge")
        for labels, value in gauges[name]:
            lines.append(f"{family}{_prom_labels(labels)} {_prom_value(value)}")
    for name in sorted(histograms):
        family = prometheus_name(name)
        lines.append(f"# TYPE {family} histogram")
        for labels, summary in histograms[name]:
            buckets = {
                int(exp): count
                for exp, count in (summary.get("buckets") or {}).items()
            }
            seen = 0
            for exp in sorted(buckets):
                seen += buckets[exp]
                bound = "0" if exp == _UNDERFLOW_EXP else _prom_value(2.0 ** exp)
                full = dict(labels)
                full["le"] = bound
                lines.append(f"{family}_bucket{_prom_labels(full)} {seen}")
            full = dict(labels)
            full["le"] = "+Inf"
            count = summary.get("count", 0)
            lines.append(f"{family}_bucket{_prom_labels(full)} {count}")
            lines.append(
                f"{family}_sum{_prom_labels(labels)} "
                f"{_prom_value(summary.get('total', 0.0))}"
            )
            lines.append(f"{family}_count{_prom_labels(labels)} {count}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict:
    """Parse text exposition back into ``{(name, labels): value}`` where
    *labels* is a sorted tuple of pairs.  Raises :class:`ValueError` on
    any malformed sample line, so tests genuinely round-trip."""

    metrics = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _PROM_LINE.match(line)
        if not match:
            raise ValueError(f"malformed exposition line: {raw!r}")
        name, label_text, value = match.groups()
        labels = tuple(sorted(_PROM_LABEL.findall(label_text or "")))
        if value == "+Inf":
            parsed = math.inf
        elif value == "-Inf":
            parsed = -math.inf
        else:
            parsed = float(value)
        metrics[(name, labels)] = parsed
    return metrics


# ---------------------------------------------------------------------------
# Structured events


class EventLog:
    """JSONL event log: one line per finished request, appended to the
    file ``repro serve --events PATH`` names.  Lines are canonical JSON
    (sorted keys) so downstream tooling can diff runs.
    """

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._fh = None

    def enable(self, path: str) -> None:
        with self._lock:
            self._fh = open(path, "a", encoding="utf-8")
            self.enabled = True

    def close(self) -> None:
        with self._lock:
            self.enabled = False
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def emit(self, record: dict) -> None:
        if not self.enabled:
            return
        with self._lock:
            if self._fh is not None:
                self._fh.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
                self._fh.flush()


# ---------------------------------------------------------------------------
# SLO tracking


class SLOTracker:
    """Availability / p99 latency / goodput against explicit targets.

    ``record`` is O(1) (counter bumps, a bounded deque append, two ring
    buckets); ``snapshot`` does the percentile math over the last
    :data:`SLO_WINDOW` latencies, so the hot path never sorts.
    *Error-budget burn* is the fraction of the allowed failures
    (``(1 - AVAILABILITY_TARGET) * requests``) already spent.
    """

    def __init__(self):
        self.requests = 0
        self.ok = 0
        self.good = 0
        self._latencies = deque(maxlen=SLO_WINDOW)
        self.request_rate = RingSeries()
        self.error_rate = RingSeries()
        self._lock = threading.Lock()

    def record(
        self,
        *,
        ok: bool,
        latency_s: float | None = None,
        good: bool | None = None,
    ) -> None:
        good = ok if good is None else good
        with self._lock:
            self.requests += 1
            if ok:
                self.ok += 1
            if good:
                self.good += 1
            if latency_s is not None:
                self._latencies.append(latency_s)
            now = time.time()
            self.request_rate.add(1.0, now)
            if not ok:
                self.error_rate.add(1.0, now)

    @staticmethod
    def _percentile(values, q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def snapshot(self) -> dict:
        with self._lock:
            requests = self.requests
            ok = self.ok
            good = self.good
            latencies = list(self._latencies)
            rate = self.request_rate.rate(60.0)
            error_rate = self.error_rate.rate(60.0)
        availability = ok / requests if requests else 1.0
        goodput_ratio = good / requests if requests else 1.0
        allowed = (1.0 - AVAILABILITY_TARGET) * requests
        consumed = requests - ok
        if consumed == 0:
            burn = 0.0
        elif allowed > 0:
            burn = consumed / allowed
        else:
            burn = math.inf
        p50 = self._percentile(latencies, 0.50) * 1000.0
        p99 = self._percentile(latencies, 0.99) * 1000.0
        worst = max(latencies) * 1000.0 if latencies else 0.0
        return {
            "targets": {
                "availability": AVAILABILITY_TARGET,
                "p99_ms": P99_MS_TARGET,
                "goodput": GOODPUT_TARGET,
            },
            "requests": requests,
            "availability": availability,
            "goodput_ratio": goodput_ratio,
            "error_budget": {
                "allowed": allowed,
                "consumed": consumed,
                "burn": None if burn == math.inf else burn,
                "remaining": None if burn == math.inf else max(0.0, 1.0 - burn),
            },
            "latency_ms": {"p50": p50, "p99": p99, "max": worst},
            "rate": {"requests_per_s": rate, "errors_per_s": error_rate},
            "meets": {
                "availability": availability >= AVAILABILITY_TARGET,
                "p99": p99 <= P99_MS_TARGET,
                "goodput": goodput_ratio >= GOODPUT_TARGET,
            },
        }


EVENTS = EventLog()

# Shard worker processes inherit the event log path the same way —
# short appended lines from many processes interleave whole (O_APPEND).
if os.environ.get("REPRO_EVENTS"):
    EVENTS.enable(os.environ["REPRO_EVENTS"])
