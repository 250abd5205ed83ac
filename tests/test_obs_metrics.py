"""The metrics view: span args folded into counters, gauges, histograms."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.obs import TRACER, metrics_doc, render_metrics
from repro.obs.telemetry import StreamingHistogram


@pytest.fixture(autouse=True)
def _restore_recorder():
    yield
    TRACER.enable(False, views=())
    TRACER.reset()


def span(**args) -> dict:
    """One recorded span carrying *args*, as a worker ships it."""
    return {"trace": "t", "sid": 1, "parent": 0, "name": "phase",
            "cat": "stage", "proc": "main", "ts": 0.0, "dur": 0.0,
            "args": args}


def worker(spills, pressure, cost) -> list[dict]:
    """A worker's span list: one span noting one sample of each kind."""
    TRACER.enable()
    TRACER.reset()
    with TRACER.span("phase"):
        TRACER.note(**{
            "alloc.spilled_vregs": spills,
            "prescount.bank_pressure.bank0": pressure,
            "prescount.residual_cost": cost,
        })
    spans = TRACER.spans
    TRACER.reset()
    return spans


class TestInstruments:
    def test_counter_accumulates(self):
        doc = metrics_doc([span(**{"alloc.evictions": 1}),
                           span(**{"alloc.evictions": 4})])
        assert doc["counters"] == {"alloc.evictions": 5}

    def test_gauge_tracks_last_and_max(self):
        name = "prescount.bank_pressure.bank1"
        doc = metrics_doc([span(**{name: v}) for v in (3, 9, 2)])
        assert doc["gauges"][name] == {"value": 2, "max": 9, "samples": 3}

    def test_histogram_summary(self):
        doc = metrics_doc([span(**{"sdg.rounds": v}) for v in (2.0, 4.0, 6.0)])
        h = doc["histograms"]["sdg.rounds"]
        assert h["count"] == 3
        assert h["total"] == 12.0
        assert h["min"] == 2.0 and h["max"] == 6.0
        assert h["mean"] == pytest.approx(4.0)

    def test_empty_histogram_mean_is_zero(self):
        assert StreamingHistogram().mean == 0.0


class TestRegistry:
    def test_disabled_records_nothing(self):
        with TRACER.span("phase"):
            TRACER.note(**{"alloc.evictions": 1})
        assert TRACER.spans == []
        assert metrics_doc(TRACER.spans) == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_enabled_records(self):
        spans = worker(spills=3, pressure=7, cost=0.25)
        doc = metrics_doc(spans)
        assert doc["counters"]["alloc.spilled_vregs"] == 3
        assert doc["gauges"]["prescount.bank_pressure.bank0"]["value"] == 7
        assert doc["histograms"]["prescount.residual_cost"]["count"] == 1

    def test_reset(self):
        TRACER.enable()
        with TRACER.span("phase"):
            TRACER.note(**{"alloc.evictions": 1})
        TRACER.reset()
        assert not metrics_doc(TRACER.spans)["counters"]


class TestSnapshotMerge:
    """A ``--jobs N`` run folds each worker's span list into the parent."""

    def test_snapshot_is_plain_json_data(self):
        json.dumps(worker(2, 5, 10.0))

    def test_counters_and_histograms_add(self):
        spans = worker(2, 5, 10.0)
        TRACER.enable()
        TRACER.record_raw(spans)
        TRACER.record_raw(spans)
        doc = metrics_doc(TRACER.spans)
        assert doc["counters"]["alloc.spilled_vregs"] == 4
        assert doc["histograms"]["prescount.residual_cost"]["count"] == 2
        assert doc["histograms"]["prescount.residual_cost"]["total"] == 20.0

    def test_gauges_combine_max_and_sum_samples(self):
        first, second = worker(0, 9, 0.0), worker(0, 4, 0.0)
        TRACER.enable()
        TRACER.record_raw(first)
        TRACER.record_raw(second)
        gauge = metrics_doc(TRACER.spans)["gauges"][
            "prescount.bank_pressure.bank0"
        ]
        assert gauge["max"] == 9
        assert gauge["value"] == 4  # last in merge order
        assert gauge["samples"] == 2

    def test_merge_none_is_noop(self):
        TRACER.enable()
        TRACER.record_raw(None)
        assert not metrics_doc(TRACER.spans)["counters"]

    def test_merge_totals_are_order_independent(self):
        workers = [worker(s, p, float(s)) for s, p in [(1, 3), (2, 8), (3, 5)]]
        forward = metrics_doc([s for w in workers for s in w])
        backward = metrics_doc([s for w in reversed(workers) for s in w])
        assert forward["counters"] == backward["counters"]
        gauge = "prescount.bank_pressure.bank0"
        assert forward["gauges"][gauge]["max"] == backward["gauges"][gauge]["max"]
        cost = "prescount.residual_cost"
        assert (forward["histograms"][cost]["total"]
                == backward["histograms"][cost]["total"])


class TestExport:
    def test_to_json_shape(self):
        doc = metrics_doc(worker(2, 5, 10.0))
        assert doc["counters"] == {"alloc.spilled_vregs": 2}
        assert doc["gauges"]["prescount.bank_pressure.bank0"]["max"] == 5
        assert doc["histograms"]["prescount.residual_cost"]["mean"] == 10.0
        json.dumps(doc)  # finite everywhere

    def test_write_json(self, tmp_path):
        """``--metrics out.json`` writes exactly the view of the run."""
        path = tmp_path / "metrics.json"
        assert cli.main(["--metrics", str(path), "allocate"]) == 0
        written = json.loads(path.read_text())
        assert written == json.loads(json.dumps(metrics_doc(TRACER.spans)))
        assert written["counters"]["sim.static_bank_conflicts"] >= 0

    def test_render_lists_everything(self):
        text = render_metrics(metrics_doc(worker(2, 5, 10.0)))
        for name in ("alloc.spilled_vregs", "bank_pressure", "residual_cost"):
            assert name in text

    def test_render_empty(self):
        assert "(nothing recorded)" in render_metrics(metrics_doc([]))


def test_pass_spans_feed_pass_seconds_and_cost_deltas():
    """Pass spans give ``pass.seconds.*``; the cost deltas are the
    metrics view's expensive producer and run only when it is asked."""
    from repro.banks import BankedRegisterFile
    from repro.prescount import PipelineConfig, run_pipeline

    from .conftest import build_mac_kernel

    def run(views):
        TRACER.enable(views=views)
        TRACER.reset()
        run_pipeline(build_mac_kernel(n_pairs=4),
                     PipelineConfig(BankedRegisterFile(16, 2), "bpc"))
        return metrics_doc(TRACER.spans)["histograms"]

    plain = run(())
    assert plain["pass.seconds.allocation"]["count"] == 1
    assert not any(name.startswith("phase.cost_delta.") for name in plain)
    full = run(("metrics",))
    assert full["phase.cost_delta.coalescing"]["count"] == 1
