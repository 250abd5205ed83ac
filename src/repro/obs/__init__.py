"""Observability for the reproduction: tracing, metrics, audit, profiling.

Four independent, individually-enableable layers, all off by default and
overhead-free while off (outputs stay bit-identical):

* :data:`TRACER` (:mod:`.tracer`) — the one span recorder: nested
  spans over every pipeline phase, allocator stage, analysis
  computation, and harness program run (``--trace out.json``), and over
  the service's requests, routes, jobs, and workers, each span the same
  ``/v1/trace`` wire record, exported as Chrome-trace JSON;
* :data:`METRICS` (:mod:`.metrics`) — counters/gauges/histograms (spill
  counts, per-bank pressure, RCG colorability failures, per-phase
  conflict-cost deltas), dumped machine-readably (``--metrics out.json``);
* :data:`AUDIT` (:mod:`.audit`) — the per-RCG-node Algorithm 1 decision
  log behind ``--explain vreg``;
* :data:`PROFILE` (:mod:`.profile`) — the conflict hotspot profiler:
  every conflict stall cycle attributed to its
  (function, loop nest, block, instruction, bank pair) site, rendered as
  top-N tables, annotated IR listings, or flamegraph folded stacks
  (``--profile out.json``).

All four snapshot to picklable plain data and merge deterministically,
which is how the parallel experiment harness folds worker-process
observations back into the parent (see
:mod:`repro.experiments.harness`).  The module-level helpers below move
those four snapshots as one unit.

The service propagates a request's trace across processes with
:class:`TraceContext` (the ``X-Repro-Trace`` header), so one trace
reaches from the front end down to the passes a cache miss ran.  On top
of the four layers, :mod:`.telemetry` adds the live aggregates the
sharded service serves: :data:`EVENTS` (JSONL request events),
:class:`SLOTracker`, :class:`StreamingHistogram` / :class:`RingSeries`,
and the Prometheus text exposition pair :func:`render_prometheus` /
:func:`parse_prometheus`.  Nothing changes an output.

See ``docs/OBSERVABILITY.md`` for the user guide and worked examples.
"""

from __future__ import annotations

from .audit import GLOBAL as AUDIT
from .audit import AuditLog, AuditRecord
from .metrics import GLOBAL as METRICS
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import GLOBAL as PROFILE
from .profile import ConflictProfiler, SiteStats, loop_paths
from .telemetry import (
    EVENTS,
    EventLog,
    RingSeries,
    SLOTracker,
    StreamingHistogram,
    parse_prometheus,
    prometheus_name,
    render_prometheus,
)
from .tracer import GLOBAL as TRACER
from .tracer import (
    TRACE_HEADER,
    Span,
    TraceContext,
    Tracer,
    chrome_trace,
    orphan_spans,
)

__all__ = [
    "AUDIT",
    "AuditLog",
    "AuditRecord",
    "ConflictProfiler",
    "Counter",
    "EVENTS",
    "EventLog",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "PROFILE",
    "RingSeries",
    "SLOTracker",
    "SiteStats",
    "Span",
    "StreamingHistogram",
    "TRACER",
    "TRACE_HEADER",
    "TraceContext",
    "Tracer",
    "any_enabled",
    "apply_flags",
    "chrome_trace",
    "enabled_flags",
    "loop_paths",
    "merge_all",
    "orphan_spans",
    "parse_prometheus",
    "prometheus_name",
    "render_prometheus",
    "reset_all",
    "snapshot_all",
]


def any_enabled() -> bool:
    """True when at least one observability layer is recording."""
    return (
        TRACER.enabled or METRICS.enabled or AUDIT.enabled or PROFILE.enabled
    )


def enabled_flags() -> tuple[bool, bool, bool, bool]:
    """(trace, metrics, audit, profile) enablement — picklable payload."""
    return (TRACER.enabled, METRICS.enabled, AUDIT.enabled, PROFILE.enabled)


def apply_flags(flags: tuple[bool, bool, bool, bool] | None) -> None:
    """Enable the layers a parent process's :func:`enabled_flags` named."""
    if flags is None:
        return
    trace, metrics, audit, profile = flags
    TRACER.enable(trace)
    METRICS.enable(metrics)
    AUDIT.enable(audit)
    PROFILE.enable(profile)


def snapshot_all() -> dict:
    """One picklable snapshot of every enabled layer (empty when off)."""
    return {
        "trace": TRACER.spans if TRACER.enabled else None,
        "metrics": METRICS.snapshot() if METRICS.enabled else None,
        "audit": AUDIT.snapshot() if AUDIT.enabled else None,
        "profile": PROFILE.snapshot() if PROFILE.enabled else None,
    }


def merge_all(snapshot: dict | None, track: str | None = None) -> None:
    """Fold a worker's :func:`snapshot_all` into the global layers.

    *track* relabels the snapshot's spans as their own ``proc`` lane
    (the harness passes the program name).
    """
    if not snapshot:
        return
    TRACER.record_raw(snapshot.get("trace"), proc=track)
    METRICS.merge(snapshot.get("metrics"))
    AUDIT.merge(snapshot.get("audit"))
    PROFILE.merge(snapshot.get("profile"))


def reset_all() -> None:
    """Clear every layer plus the request event ring (enablement is
    left untouched)."""
    TRACER.reset()
    METRICS.reset()
    AUDIT.reset()
    PROFILE.reset()
    EVENTS.reset()
