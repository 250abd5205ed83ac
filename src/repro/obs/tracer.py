"""One span model for the pipeline, the harness, and the service.

A *span* is one named, timed interval of work: a pass, an analysis, a
simulator run, a harness program, an HTTP handler, a routed request, a
queued job.  Every span is recorded as the ``/v1/trace`` wire record::

    {"trace", "sid", "parent", "name", "cat", "proc", "ts", "dur", "args"}

``trace`` names the tree the span belongs to, ``parent`` is the sid of
the enclosing span (``0`` at a root), ``proc`` labels the process that
recorded it, ``ts`` is wall-clock seconds and ``dur`` is seconds.

Spans nest through a per-thread stack of *contexts*: an open span, or a
:class:`TraceContext` made active with :meth:`Tracer.activate` (the
service does this with the coordinates a request carried in).  A span
opened under an active context joins its trace; with none active it
roots a new trace.  So a batch ``--trace`` run records one trace per
harness program, and a served cache miss records its pass and analysis
spans inside the service's ``worker.execute`` span.

The process-wide :data:`GLOBAL` recorder is **disabled by default** and
the disabled path is allocation-free: :meth:`Tracer.span` returns one
shared no-op span, so instrumented code costs a single attribute check
per span site and outputs stay bit-identical.  ``enabled`` is the one
switch; :attr:`Tracer.views` only names which expensive producers (see
:meth:`Tracer.wants`) run for the views of :mod:`repro.obs.views`.

Span ids count up from a random 48-bit base that a forked child draws
afresh, so ids follow open order within a process and spans recorded in
different processes merge without remapping: a pool worker returns its
spans as plain dicts and the parent folds them in with
:meth:`Tracer.record_raw`.  One exporter, :func:`chrome_trace`, writes
any set of spans as a Chrome trace with one lane per ``proc``.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "GLOBAL",
    "TRACE_HEADER",
    "Span",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "orphan_spans",
]

TRACE_HEADER = "X-Repro-Trace"

_BAGGAGE_VALUE_RE = re.compile(r"[^A-Za-z0-9_.:@/+-]")


def _random_id(bits: int) -> int:
    return int.from_bytes(os.urandom(bits // 8), "big") or 1


def _new_trace_id() -> str:
    return f"{_random_id(64):016x}"


def _clean_baggage(items: dict) -> tuple:
    pairs = []
    for key, value in sorted(items.items()):
        if value is None:
            continue
        text = _BAGGAGE_VALUE_RE.sub("_", str(value))[:48]
        pairs.append((str(key), text))
    return tuple(pairs)


@dataclass(frozen=True)
class TraceContext:
    """Immutable trace coordinates carried alongside (never *in*) a request.

    ``trace_id`` names the whole request tree; ``span_id`` is the id of
    the span that should parent whatever the receiving side records
    (``0`` = root).  ``baggage`` is a small, sanitized key/value tuple
    for labeling downstream spans.  The wire form is the
    ``X-Repro-Trace`` header::

        <trace_id>;span=<span_id>;key=value;...
    """

    trace_id: str
    span_id: int = 0
    baggage: tuple = ()

    @classmethod
    def new(cls, **baggage) -> "TraceContext":
        return cls(_new_trace_id(), 0, _clean_baggage(baggage))

    def child(self, span_id: int) -> "TraceContext":
        return TraceContext(self.trace_id, span_id, self.baggage)

    def bag(self) -> dict:
        return dict(self.baggage)

    def header(self) -> str:
        parts = [self.trace_id, f"span={self.span_id}"]
        parts.extend(f"{key}={value}" for key, value in self.baggage)
        return ";".join(parts)

    @classmethod
    def parse(cls, value) -> "TraceContext | None":
        """Decode a header value; ``None`` on anything malformed."""

        if not value or not isinstance(value, str) or len(value) > 1024:
            return None
        head, _, rest = value.partition(";")
        trace_id = head.strip()
        if not re.fullmatch(r"[0-9a-f]{8,32}", trace_id):
            return None
        span_id = 0
        baggage = []
        for part in rest.split(";"):
            key, sep, item = part.partition("=")
            if not sep:
                continue
            key = key.strip()
            if key == "span":
                try:
                    span_id = int(item)
                except ValueError:
                    return None
            elif key:
                baggage.append((key, item))
        return cls(trace_id, span_id, tuple(baggage))


class _NullSpan:
    """The shared no-op span the disabled recorder hands out."""

    __slots__ = ()

    #: A disabled recorder propagates no trace coordinates.
    ctx = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **args) -> None:
        """Discard annotations (mirrors :meth:`Span.note`)."""

    def end(self) -> None:
        """Nothing to record (mirrors :meth:`Span.end`)."""


_NULL_SPAN = _NullSpan()


class Span:
    """An open span; it records itself when it ends.

    ``trace_id`` / ``span_id`` / ``baggage`` make an open span usable
    wherever a :class:`TraceContext` is (the thread's context stack
    holds both); :attr:`ctx` is the immutable form to send downstream.
    """

    __slots__ = ("_tracer", "trace_id", "span_id", "parent", "baggage",
                 "name", "category", "args", "ts", "_start")

    def __init__(self, tracer: "Tracer", parent, name: str, category: str,
                 args: dict):
        self._tracer = tracer
        if parent is None:
            self.trace_id = _new_trace_id()
            self.parent = 0
            self.baggage = ()
        else:
            self.trace_id = parent.trace_id
            self.parent = parent.span_id
            self.baggage = parent.baggage
        self.span_id = next(tracer._ids)
        self.name = name
        self.category = category
        self.args = args
        self._start = time.perf_counter()
        self.ts = tracer._wall(self._start)

    @property
    def ctx(self) -> TraceContext:
        """This span as the parent of whatever a receiver records."""
        return TraceContext(self.trace_id, self.span_id, self.baggage)

    def note(self, **args) -> None:
        """Attach key/values to the span (visible in the trace viewer)."""
        self.args.update(args)

    def end(self) -> None:
        """Record the span; a span opened with :meth:`Tracer.begin` may
        end on another thread than the one that began it."""
        self._tracer._finish(self, time.perf_counter() - self._start)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args.setdefault("error", f"{exc_type.__name__}: {exc}"[:200])
        self.end()
        return False


class Tracer:
    """Collects spans per trace; disabled (and overhead-free) by default.

    A *bounded* recorder (the service's mode) keeps at most
    :attr:`MAX_TRACES` traces of :attr:`MAX_SPANS_PER_TRACE` spans,
    evicting the oldest trace first and counting refused spans in
    :attr:`dropped`; a batch ``--trace`` run keeps every span.
    """

    MAX_TRACES = 512
    MAX_SPANS_PER_TRACE = 2048

    def __init__(self, enabled: bool = False, process: str = "main"):
        self.enabled = enabled
        #: Views whose expensive producers run while recording (see
        #: :meth:`wants`); the cheap facts are recorded regardless.
        self.views: frozenset = frozenset()
        self.process = process
        self.bounded = False
        self.dropped = 0
        self._fresh_state()

    def _fresh_state(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._traces: dict[str, list[dict]] = {}
        self._ids = itertools.count(_random_id(48))
        # One clock per process: a span's ts and dur both come from
        # perf_counter, so a child always ends inside its parent, and
        # the wall-clock anchor keeps ts comparable across processes.
        self._wall0, self._perf0 = time.time(), time.perf_counter()

    def _wall(self, perf: float) -> float:
        """Wall-clock seconds of a :func:`time.perf_counter` reading."""
        return self._wall0 + (perf - self._perf0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, on: bool = True, *, process: str | None = None,
               bounded: bool | None = None, views=None) -> None:
        self.enabled = on
        if process:
            self.process = process
        if bounded is not None:
            self.bounded = bounded
        if views is not None:
            self.views = frozenset(views)

    def wants(self, view: str) -> bool:
        """Whether the expensive producer behind *view* runs: the
        per-pass conflict-cost deltas (``"metrics"``), Algorithm-1
        candidate rankings (``"explain"``) or per-site stall attribution
        (``"profile"``).  Only while recording, and only when asked."""
        return self.enabled and view in self.views

    def reset(self) -> None:
        """Drop every span and every thread's active contexts."""
        with self._lock:
            self._traces.clear()
            self.dropped = 0
            self._tls = threading.local()

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self):
        """The thread's innermost active context (a :class:`Span` or a
        :class:`TraceContext`), or ``None``."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def activate(self, ctx):
        """Make *ctx* the thread's active context without recording a
        span, so spans and events below it join the request's trace."""
        if ctx is None or not self.enabled:
            yield
            return
        stack = self._stack()
        stack.append(ctx)
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "phase", **args):
        """Open a span; use as ``with TRACER.span("coalescing"): ...``.

        The span nests under the thread's active context, or roots a new
        trace when none is active.  When the recorder is disabled this
        returns a shared no-op span without allocating, so call sites
        need no guard.
        """
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        span = Span(self, stack[-1] if stack else None, name, category, args)
        stack.append(span)
        return span

    def begin(self, name: str, category: str = "phase", ctx=None, **args):
        """Open a span that stays off the thread's stack and ends with
        :meth:`Span.end`, on any thread: a queued job's span begins at
        submit and ends on the dispatcher.  It nests under *ctx*, else
        the active context, else roots a new trace; a span that never
        ends records nothing."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, ctx or self.current(), name, category, args)

    def _finish(self, span: Span, dur: float) -> None:
        stack = getattr(self._tls, "stack", None)
        # Tolerate out-of-order exits (generators, re-raised errors): pop
        # the span wherever it sits instead of corrupting the stack.
        if stack:
            if stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
        self._record(
            {
                "trace": span.trace_id,
                "sid": span.span_id,
                "parent": span.parent,
                "name": span.name,
                "cat": span.category,
                "proc": self.process,
                "ts": span.ts,
                "dur": dur,
                "args": span.args,
            }
        )

    def event(self, name: str, /, ctx=None, **args) -> None:
        """An instantaneous span (retry, breaker trip, fault firing)
        under *ctx*, else the active context.  With neither there is no
        request to annotate, and the event is dropped."""
        if not self.enabled:
            return
        ctx = ctx or self.current()
        if ctx is None:
            return
        self._record(
            {
                "trace": ctx.trace_id,
                "sid": next(self._ids),
                "parent": ctx.span_id,
                "name": name,
                "cat": "event",
                "proc": self.process,
                "ts": self._wall(time.perf_counter()),
                "dur": 0.0,
                "args": args,
            }
        )

    def fact(self, name: str, /, **args) -> None:
        """An event a view folds (a decision, a row of profiler sites):
        under the active context, or as a trace of its own when none is
        active, so a producer called outside any span still counts."""
        if self.enabled:
            self.event(name, ctx=self.current() or TraceContext.new(), **args)

    def note(self, **args) -> None:
        """Attach *args* to the thread's innermost open span (a bare
        :class:`TraceContext` carries none, so nothing is noted)."""
        if self.enabled:
            span = self.current()
            if isinstance(span, Span):
                span.args.update(args)

    def count(self, key: str) -> None:
        """Add one to arg *key* of the thread's innermost open span."""
        if self.enabled:
            span = self.current()
            if isinstance(span, Span):
                args = span.args
                args[key] = args.get(key, 0) + 1

    def _record(self, span: dict) -> None:
        """Buffer one wire record under its trace."""
        with self._lock:
            bucket = self._traces.get(span["trace"])
            if bucket is None:
                if self.bounded:
                    while len(self._traces) >= self.MAX_TRACES:
                        self._traces.pop(next(iter(self._traces)))
                bucket = self._traces[span["trace"]] = []
            elif self.bounded and len(bucket) >= self.MAX_SPANS_PER_TRACE:
                self.dropped += 1
                return
            bucket.append(span)

    def record_raw(self, spans, proc: str | None = None) -> None:
        """Fold spans recorded elsewhere (a harness pool worker's) into
        this buffer.  *proc*, when given, relabels them
        (a ``--jobs N`` program becomes its own lane); otherwise an
        unlabeled span gets this process's label."""
        if not self.enabled:
            return
        for span in spans or ():
            span = dict(span)
            if proc:
                span["proc"] = proc
            elif not span.get("proc"):
                span["proc"] = self.process
            self._record(span)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def spans_for(self, trace_id: str) -> list[dict]:
        with self._lock:
            return [dict(s) for s in self._traces.get(trace_id, ())]

    @property
    def spans(self) -> list[dict]:
        """Every buffered span, trace by trace in first-recorded order."""
        with self._lock:
            return [dict(s) for spans in self._traces.values() for s in spans]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._traces.values())

    def span_tree(self) -> list[dict]:
        """The nested call tree: ``{"name", "category", "children"}``.

        Roots come in trace order (first recorded first, which is suite
        order for a merged parallel run) and children in open order, so
        the tree does not depend on timestamps and a parallel run's tree
        equals the serial run's.
        """
        with self._lock:
            buckets = [list(bucket) for bucket in self._traces.values()]
        roots: list[dict] = []
        for bucket in buckets:
            bucket.sort(key=lambda s: s["sid"])
            nodes = {
                s["sid"]: {"name": s["name"], "category": s["cat"],
                           "children": []}
                for s in bucket
            }
            for s in bucket:
                parent = nodes.get(s["parent"])
                siblings = parent["children"] if parent else roots
                siblings.append(nodes[s["sid"]])
        return roots

    def to_chrome_trace(self) -> dict:
        return chrome_trace({"trace_id": None, "spans": self.spans})

    def write_chrome_trace(self, path: str) -> None:
        """Serialize :meth:`to_chrome_trace` to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)


def orphan_spans(spans) -> list:
    """Spans whose parent id resolves to no span in *spans* and is not
    the root (``0``) — a coherent trace has none."""

    sids = {span["sid"] for span in spans}
    return [s for s in spans if s["parent"] and s["parent"] not in sids]


def chrome_trace(payload: dict) -> dict:
    """Render ``{"trace_id", "spans"}`` (a ``/v1/trace/<trace_id>``
    payload, or a whole buffer) as one Chrome Trace Event document: one
    pid lane per ``proc`` in first-seen order, timestamps in microseconds
    from the earliest span, ``sid``/``parent`` kept in each event's args,
    and events (``cat == "event"``) as instant marks.
    """

    spans = payload.get("spans") or []
    pids: dict[str, int] = {}
    for span in spans:
        pids.setdefault(span.get("proc") or "main", len(pids) + 1)
    base = min((span["ts"] for span in spans), default=0.0)
    events = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": proc},
        }
        for proc, pid in pids.items()
    ]
    for span in spans:
        args = dict(span.get("args") or {})
        args["sid"] = span["sid"]
        args["parent"] = span["parent"]
        event = {
            "name": span["name"],
            "cat": span.get("cat", "span"),
            "pid": pids[span.get("proc") or "main"],
            "tid": 0,
            "ts": round((span["ts"] - base) * 1e6, 3),
            "args": args,
        }
        if span.get("cat") == "event":
            event["ph"] = "i"
            event["s"] = "p"
        else:
            event["ph"] = "X"
            event["dur"] = round(max(span.get("dur", 0.0), 0.0) * 1e6, 3)
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": payload.get("trace_id")},
    }


#: The process-wide recorder: ``--trace`` enables it for a batch run,
#: ``repro serve`` (and ``REPRO_TELEMETRY`` in the processes it spawns)
#: for the service, bounded.
GLOBAL = Tracer()
# A forked child (a pool or shard worker) starts empty with its own ids,
# so it never re-reports its parent's spans or reuses its parent's sids.
os.register_at_fork(after_in_child=GLOBAL._fresh_state)

if os.environ.get("REPRO_TELEMETRY"):
    GLOBAL.enable(bounded=True)
