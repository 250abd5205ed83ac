"""The span recorder: nesting, contexts, merging, bounds, Chrome export."""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading

import pytest

from repro.obs import tracer as tracer_module
from repro.obs.tracer import _NULL_SPAN, TraceContext, Tracer, chrome_trace


def by_name(tracer):
    return {s["name"]: s for s in tracer.spans}


class TestDisabledPath:
    def test_disabled_span_is_the_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b", category="pass", k=1) is _NULL_SPAN
        assert tracer.begin("c", ctx=TraceContext.new()) is _NULL_SPAN
        assert _NULL_SPAN.ctx is None

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        with tracer.activate(TraceContext.new()):
            with tracer.span("a"):
                with tracer.span("b") as sp:
                    sp.note(items=3)
            tracer.event("e")
        tracer.begin("job").end()
        tracer.record_raw([{"trace": "t", "sid": 1, "parent": 0}])
        assert len(tracer) == 0
        assert tracer.spans == []

    def test_enable_disable_roundtrip(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        tracer.enable(False)
        with tracer.span("b"):
            pass
        assert [s["name"] for s in tracer.spans] == ["a"]


class TestNesting:
    def test_records_the_wire_format(self):
        tracer = Tracer(enabled=True, process="p")
        with tracer.span("a", category="stage", k=1):
            pass
        (span,) = tracer.spans
        assert set(span) == {
            "trace", "sid", "parent", "name", "cat", "proc", "ts", "dur", "args",
        }
        assert span["cat"] == "stage" and span["proc"] == "p"
        assert span["parent"] == 0 and span["args"] == {"k": 1}

    def test_parent_links_reconstruct_the_call_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner1"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("inner2"):
                pass
        tree = tracer.span_tree()
        assert [t["name"] for t in tree] == ["outer"]
        inner = [c["name"] for c in tree[0]["children"]]
        assert inner == ["inner1", "inner2"]
        assert tree[0]["children"][0]["children"][0]["name"] == "leaf"

    def test_sids_assigned_in_open_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        spans = by_name(tracer)
        assert spans["a"]["sid"] < spans["b"]["sid"] < spans["c"]["sid"]
        assert spans["b"]["parent"] == spans["a"]["sid"]
        assert spans["b"]["trace"] == spans["a"]["trace"]
        # A span opened with nothing active roots its own trace.
        assert spans["a"]["parent"] == 0 and spans["c"]["parent"] == 0
        assert spans["c"]["trace"] != spans["a"]["trace"]

    def test_siblings_ordered_by_open_order_not_completion(self):
        # "a" completes *after* "b" but opened first: span_tree orders by
        # open order, which is what makes trees timestamp-independent.
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            a = tracer.span("a")
            a.__enter__()
            with tracer.span("b"):  # opens and closes while a is open
                pass
            a.__exit__(None, None, None)
            with tracer.span("c"):
                pass
        tree = tracer.span_tree()
        # b opened while a was open, so it nests under a.
        assert [c["name"] for c in tree[0]["children"]] == ["a", "c"]
        assert [c["name"] for c in tree[0]["children"][0]["children"]] == ["b"]

    def test_note_attaches_args(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a", category="stage", fixed=1) as sp:
            sp.note(extra=2)
        (span,) = tracer.spans
        assert span["args"] == {"fixed": 1, "extra": 2}
        assert span["cat"] == "stage"

    def test_exception_annotates_and_propagates(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("a"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span["args"]["error"] == "ValueError: boom"
        assert tracer.current() is None  # the stack unwound

    def test_timing_is_monotone(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = by_name(tracer)
        outer, inner = spans["outer"], spans["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert outer["dur"] >= inner["dur"] >= 0.0


class TestContexts:
    def test_span_joins_the_active_context(self):
        tracer = Tracer(enabled=True)
        ctx = TraceContext.new(kernel="mac").child(42)
        with tracer.activate(ctx):
            with tracer.span("a") as span:
                assert tracer.current() is span
                child = span.ctx
            assert tracer.current() is ctx
        assert tracer.current() is None
        (record,) = tracer.spans
        assert record["trace"] == ctx.trace_id and record["parent"] == 42
        assert child == TraceContext(ctx.trace_id, record["sid"], ctx.baggage)

    def test_begin_stays_off_the_stack_and_ends_anywhere(self):
        tracer = Tracer(enabled=True)
        ctx = TraceContext.new()
        job = tracer.begin("job", category="service", ctx=ctx)
        assert tracer.current() is None
        with tracer.activate(job.ctx):
            with tracer.span("work"):
                pass
        ender = threading.Thread(target=job.end)
        ender.start()
        ender.join()
        spans = by_name(tracer)
        assert spans["job"]["parent"] == 0 and spans["job"]["trace"] == ctx.trace_id
        assert spans["work"]["parent"] == spans["job"]["sid"]

    def test_never_ended_span_records_nothing(self):
        tracer = Tracer(enabled=True)
        tracer.begin("abandoned")
        assert len(tracer) == 0

    def test_events_attach_to_a_context_or_drop(self):
        tracer = Tracer(enabled=True)
        tracer.event("orphan")
        assert len(tracer) == 0
        ctx = TraceContext.new().child(9)
        tracer.event("explicit", ctx=ctx, n=1)
        with tracer.span("open") as span:
            tracer.event("implicit")
        spans = by_name(tracer)
        assert spans["explicit"]["parent"] == 9
        assert spans["explicit"]["cat"] == "event"
        assert spans["explicit"]["dur"] == 0.0
        assert spans["implicit"]["parent"] == span.span_id

    def test_producers_annotate_the_innermost_open_span(self):
        """``note``/``count`` land on the innermost span, never on a bare
        context; a ``fact`` with nothing active roots its own trace; and
        ``wants`` names only the views asked for, only while recording."""
        tracer = Tracer(enabled=True)
        tracer.enable(views=("profile",))
        with tracer.activate(TraceContext.new()):
            tracer.note(lost=1)
            tracer.count("lost")
            with tracer.span("outer"):
                with tracer.span("inner"):
                    tracer.note(**{"alloc.evictions": 2})
                    tracer.count("hit:CFG")
                    tracer.count("hit:CFG")
        tracer.fact("decision", vreg="%v1")
        spans = by_name(tracer)
        assert spans["inner"]["args"] == {"alloc.evictions": 2, "hit:CFG": 2}
        assert spans["outer"]["args"] == {}
        assert spans["decision"]["parent"] == 0
        assert spans["decision"]["trace"] != spans["outer"]["trace"]
        assert tracer.wants("profile") and not tracer.wants("metrics")
        tracer.enable(False)
        assert not tracer.wants("profile")

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer(enabled=True)
        with tracer.span("main-thread"):
            worker = threading.Thread(target=lambda: tracer.span("other").end())
            worker.start()
            worker.join()
        spans = by_name(tracer)
        assert spans["other"]["parent"] == 0


class TestSnapshotMerge:
    def _worker_spans(self, names):
        worker = Tracer(enabled=True, process="worker")
        with worker.span(names[0]):
            for inner in names[1:]:
                with worker.span(inner):
                    pass
        return worker.spans

    def test_snapshot_is_plain_data(self):
        spans = self._worker_spans(["p", "c"])
        assert all(isinstance(s, dict) for s in spans)
        json.dumps(spans)  # picklable and JSON-able

    def test_record_raw_keeps_ids_and_parent_links(self):
        parent = Tracer(enabled=True)
        with parent.span("local"):
            pass
        parent.record_raw(self._worker_spans(["prog", "fn"]), proc="prog")
        tree = parent.span_tree()
        assert [t["name"] for t in tree] == ["local", "prog"]
        assert [c["name"] for c in tree[1]["children"]] == ["fn"]
        sids = [s["sid"] for s in parent.spans]
        assert len(sids) == len(set(sids))
        assert {s["proc"] for s in parent.spans} == {"main", "prog"}

    def test_record_raw_stamps_unlabeled_spans(self):
        tracer = Tracer(enabled=True, process="here")
        tracer.record_raw([
            {"trace": "t", "sid": 1, "parent": 0, "name": "a", "proc": None},
            {"trace": "t", "sid": 2, "parent": 1, "name": "b", "proc": "there"},
        ])
        assert [s["proc"] for s in tracer.spans] == ["here", "there"]

    def test_merge_order_determines_tracks(self):
        a = Tracer(enabled=True)
        a.record_raw(self._worker_spans(["one"]), proc="one")
        a.record_raw(self._worker_spans(["two"]), proc="two")
        b = Tracer(enabled=True)
        b.record_raw(self._worker_spans(["one"]), proc="one")
        b.record_raw(self._worker_spans(["two"]), proc="two")
        assert [t["name"] for t in a.span_tree()] == ["one", "two"]
        assert a.span_tree() == b.span_tree()

    def test_merge_none_or_empty_is_noop(self):
        tracer = Tracer(enabled=True)
        tracer.record_raw(None)
        tracer.record_raw([])
        assert len(tracer) == 0

    def test_take_removes_one_trace(self):
        tracer = Tracer(enabled=True)
        with tracer.span("keep"):
            pass
        with tracer.span("take") as span:
            pass
        taken = tracer.take(span.trace_id)
        assert [s["name"] for s in taken] == ["take"]
        assert [s["name"] for s in tracer.spans] == ["keep"]
        assert tracer.take("missing") == []

    def test_reset_clears_everything(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        tracer.record_raw(self._worker_spans(["w"]), proc="w")
        tracer.reset()
        assert len(tracer) == 0
        with tracer.span("b"):
            pass
        assert [s["name"] for s in tracer.spans] == ["b"]

    def test_bounded_buffer_evicts_oldest_trace_and_caps_spans(self):
        tracer = Tracer(enabled=True)
        tracer.enable(bounded=True)
        first = TraceContext.new()
        for _ in range(Tracer.MAX_SPANS_PER_TRACE + 3):
            tracer.event("e", ctx=first)
        assert len(tracer.spans_for(first.trace_id)) == Tracer.MAX_SPANS_PER_TRACE
        assert tracer.dropped == 3
        contexts = [TraceContext.new() for _ in range(Tracer.MAX_TRACES)]
        for ctx in contexts:
            tracer.event("e", ctx=ctx)
        # The 512th new trace evicted the oldest one, and only it.
        assert tracer.spans_for(first.trace_id) == []
        assert all(tracer.spans_for(ctx.trace_id) for ctx in contexts)

    def test_unbounded_buffer_keeps_every_span(self):
        tracer = Tracer(enabled=True)
        for _ in range(Tracer.MAX_TRACES + 1):
            with tracer.span("root"):
                pass
        ctx = TraceContext.new()
        for _ in range(Tracer.MAX_SPANS_PER_TRACE + 1):
            tracer.event("e", ctx=ctx)
        assert len(tracer) == Tracer.MAX_TRACES + Tracer.MAX_SPANS_PER_TRACE + 2
        assert tracer.dropped == 0


def test_concurrent_recording_loses_nothing():
    # Many threads share one recorder: every span lands once, ids stay
    # unique, and each thread's spans nest only under its own.
    tracer = Tracer(enabled=True)
    threads, depth, rounds = 8, 3, 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(index):
            for _ in range(rounds):
                with tracer.span(f"t{index}"):
                    for _ in range(depth):
                        with tracer.span(f"t{index}"):
                            tracer.event(f"t{index}")

        workers = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    spans = tracer.spans
    assert len(spans) == threads * rounds * (1 + 2 * depth)
    by_sid = {s["sid"]: s for s in spans}
    assert len(by_sid) == len(spans)
    for span in spans:
        if span["parent"]:
            assert by_sid[span["parent"]]["name"] == span["name"]


def _child_state(_):
    tracer = tracer_module.GLOBAL
    return len(tracer), next(tracer._ids)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_child_starts_empty_with_its_own_ids():
    tracer = tracer_module.GLOBAL
    was = tracer.enabled
    tracer.enable()
    try:
        with tracer.span("parent"):
            pass
        parent_next = next(tracer._ids)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            (spans, child_next), = pool.map(_child_state, [0])
        assert spans == 0
        assert abs(child_next - parent_next) > 1_000_000
    finally:
        tracer.enable(was)
        tracer.reset()


class TestChromeTrace:
    def test_event_shape(self):
        tracer = Tracer(enabled=True, process="repro")
        with tracer.span("outer", category="pipeline", method="bpc"):
            with tracer.span("inner", category="pass"):
                pass
        doc = tracer.to_chrome_trace()
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [(m["name"], m["args"]["name"]) for m in meta] == [
            ("process_name", "repro")
        ]
        assert sorted(e["name"] for e in complete) == ["inner", "outer"]
        outer = next(e for e in complete if e["name"] == "outer")
        inner = next(e for e in complete if e["name"] == "inner")
        assert outer["cat"] == "pipeline"
        assert outer["args"]["method"] == "bpc"
        assert inner["args"]["parent"] == outer["args"]["sid"]
        for e in complete:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0  # microseconds

    def test_one_lane_per_proc_in_first_seen_order(self):
        tracer = Tracer(enabled=True)
        for proc in ("433.milc", "435.gromacs"):
            worker = Tracer(enabled=True)
            with worker.span("prog"):
                pass
            tracer.record_raw(worker.spans, proc=proc)
        events = tracer.to_chrome_trace()["traceEvents"]
        lanes = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["name"] == "process_name"
        }
        assert lanes == {"433.milc": 1, "435.gromacs": 2}
        assert sorted(e["pid"] for e in events if e["ph"] == "X") == [1, 2]

    def test_events_render_as_instants(self):
        ctx = TraceContext.new()
        tracer = Tracer(enabled=True)
        tracer.event("fault", ctx=ctx)
        doc = chrome_trace({"trace_id": ctx.trace_id,
                            "spans": tracer.spans_for(ctx.trace_id)})
        (instant,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "fault" and "dur" not in instant
        assert doc["otherData"]["trace_id"] == ctx.trace_id

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
