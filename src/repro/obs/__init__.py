"""Observability for the reproduction: one recorder and four views.

:data:`TRACER` (:mod:`.tracer`) is the one recorder and its ``enabled``
flag the one switch: nested spans over every pipeline phase, allocator
stage, analysis computation, simulator run and harness program, and over
the service's requests, routes, jobs and workers, each span the same
``/v1/trace`` wire record, exported as Chrome-trace JSON
(``--trace out.json``).  Spans carry the pipeline's facts as args — pass
and analysis-cache counts, spills, copies, RCG size, residual cost, bank
pressure, SDG rounds, simulator totals — and events carry the Algorithm-1
decisions and the profiler's per-site rows.

:mod:`.views` folds recorded spans into the four views the CLI prints at
exit: ``--pass-stats`` (:func:`render_pass_stats`), ``--metrics``
(:func:`metrics_doc`), ``--explain vreg`` (:func:`explain`) and
``--profile`` (:class:`Profile`).  The three expensive producers — per-pass
conflict-cost deltas, Algorithm-1 candidate rankings and per-site stall
attribution — run only when their view is in :attr:`Tracer.views`
(:meth:`Tracer.wants`).  With the recorder off every producer returns
early and outputs stay bit-identical.

A ``--jobs N`` run ships each program's spans back as one list (see
:mod:`repro.experiments.harness`), so every view folds to the same
result at any job count.

The service propagates a request's trace across processes with
:class:`TraceContext` (the ``X-Repro-Trace`` header), so one trace
reaches from the front end down to the passes a cache miss ran.
:mod:`.telemetry` adds the live aggregates the sharded service serves:
:data:`EVENTS` (JSONL request events), :class:`SLOTracker`,
:class:`StreamingHistogram` / :class:`RingSeries`, and the Prometheus
text exposition pair :func:`render_prometheus` /
:func:`parse_prometheus`.  Nothing changes an output.

See ``docs/OBSERVABILITY.md`` for the user guide and worked examples.
"""

from __future__ import annotations

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
from .views import (
    Profile,
    SiteStats,
    decisions,
    explain,
    loop_paths,
    metrics_doc,
    pass_table,
    render_metrics,
    render_pass_stats,
)

__all__ = [
    "EVENTS",
    "EventLog",
    "Profile",
    "RingSeries",
    "SLOTracker",
    "SiteStats",
    "Span",
    "StreamingHistogram",
    "TRACER",
    "TRACE_HEADER",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "decisions",
    "explain",
    "loop_paths",
    "metrics_doc",
    "orphan_spans",
    "parse_prometheus",
    "pass_table",
    "prometheus_name",
    "render_metrics",
    "render_pass_stats",
    "render_prometheus",
    "reset_all",
]


def reset_all() -> None:
    """Clear the recorder (its switch is left untouched)."""
    TRACER.reset()
