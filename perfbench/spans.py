"""In-memory spans recorded by the benchmark around public calls.

A span is one timed call into a layer: its name, start, end, the span
that caused it and the request it belongs to.  Spans stay in memory
while the benchmark runs; :meth:`SpanLog.chrome_trace` writes them out
once at exit.  A layer's self time is its span duration minus the part
of that interval its child spans cover, so the self times of one span
tree add up to the duration of its root.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rid: str
    thread: int


class SpanLog:
    """Thread-safe span recorder; each thread keeps its own open-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, start: float, rid: str | None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = self.spans[parent].rid if parent is not None else ""
        span = Span(name, start, start, parent, rid, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, rid: str | None = None, start: float | None = None):
        """Time the ``with`` body as a child of the thread's open span.

        *start* backdates the span (an open-loop request starts at its
        scheduled arrival, not when a client thread picked it up).
        """
        index = self._open(name, time.perf_counter() if start is None else start, rid)
        stack = self._stack()
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a closed child span of the thread's open span."""
        index = self._open(name, start, None)
        self.spans[index].end = end

    def wrap(self, fn, name: str):
        """*fn* with every call timed as a span named *name*."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children[index], key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[span.name] += (span.end - span.start) - covered
        return dict(totals)

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (load in ui.perfetto.dev)."""
        epoch = min((s.start for s in self.spans), default=0.0)
        threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": threads[s.thread],
                "ts": round((s.start - epoch) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {"id": index, "parent": s.parent, "request": s.rid},
            }
            for index, s in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
