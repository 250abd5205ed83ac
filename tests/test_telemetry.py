"""Fleet telemetry: trace coherence, exposition round-trips, SLO stats.

The distributed-tracing contract under test: one request produces one
trace whose spans stitch into a single tree (no orphans) across every
layer it crossed — frontend, routed shard, worker pool, the passes and
analyses a miss ran, retries, and fault injections — and turning
tracing on never changes a byte of any artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.ir import print_function
from repro.obs import (
    EVENTS,
    TRACER,
    SLOTracker,
    TraceContext,
    chrome_trace,
    orphan_spans,
    parse_prometheus,
    render_prometheus,
    reset_all,
)
from repro.resilience import FAULTS, FaultPlan, load_plan
from repro.service import (
    AllocationService,
    LocalShard,
    ServiceConfig,
    ShardRouter,
)
from repro.service.loadgen import LoadgenConfig, run_loadgen

from .conftest import build_mac_kernel


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test starts and ends with tracing dark and faults disarmed."""
    reset_all()
    yield
    FAULTS.disarm()
    TRACER.enable(False, process="main", bounded=False)
    reset_all()


def make_request(method="bpc", trip_count=16, **extra):
    request = {
        "ir": print_function(build_mac_kernel(trip_count=trip_count)),
        "file": {"registers": 32, "banks": 2},
        "method": method,
    }
    request.update(extra)
    return request


def make_router(n=3, **kwargs):
    shards = [LocalShard(f"s{i}", ServiceConfig()) for i in range(n)]
    return ShardRouter(shards, **kwargs)


def span_names(spans):
    return [s["name"] for s in spans]


def parent_of(spans, name):
    """The span whose sid is the named span's parent, or None."""
    by_sid = {s["sid"]: s for s in spans}
    target = next(s for s in spans if s["name"] == name)
    return by_sid.get(target["parent"])


# ----------------------------------------------------------------------
# TraceContext wire format
# ----------------------------------------------------------------------
def test_trace_context_header_round_trip():
    ctx = TraceContext.new(kernel="mac", tier="bpc")
    parsed = TraceContext.parse(ctx.header())
    assert parsed.trace_id == ctx.trace_id
    assert parsed.span_id == ctx.span_id
    assert parsed.bag() == {"kernel": "mac", "tier": "bpc"}


def test_trace_context_parse_rejects_garbage():
    assert TraceContext.parse(None) is None
    assert TraceContext.parse("") is None
    assert TraceContext.parse(";;;") is None


def test_child_context_links_to_parent_span():
    ctx = TraceContext.new()
    child = ctx.child(1234)
    assert child.trace_id == ctx.trace_id
    assert child.span_id == 1234


# ----------------------------------------------------------------------
# One request, one coherent trace
# ----------------------------------------------------------------------
def test_router_submit_produces_single_coherent_trace():
    TRACER.enable(bounded=True, process="frontend")
    router = make_router()
    ctx = TraceContext.new(kernel="mac")
    status = router.submit(make_request(), trace=ctx)
    assert router.wait(status["job_id"])["status"] == "done"

    spans = TRACER.spans_for(ctx.trace_id)
    assert spans, "router must record spans under the request's trace id"
    assert orphan_spans(spans) == []
    names = span_names(spans)
    assert "route" in names
    assert "service.job" in names
    # The queue's job span hangs off the router's route span.
    assert parent_of(spans, "service.job")["name"] == "route"


def test_trace_stays_coherent_across_shard_handoff():
    plan = FaultPlan.from_dict(
        {"seed": 7, "faults": [{"site": "shard.route", "mode": "handoff", "times": 1}]}
    )
    FAULTS.arm(plan)
    TRACER.enable(bounded=True, process="frontend")
    router = make_router()
    ctx = TraceContext.new()
    status = router.submit(make_request(), trace=ctx)
    assert router.wait(status["job_id"])["status"] == "done"

    spans = TRACER.spans_for(ctx.trace_id)
    assert orphan_spans(spans) == []
    route = next(s for s in spans if s["name"] == "route")
    # The injected handoff is visible as instantaneous event spans
    # hanging off the route span: the fault fired, and the key landed on
    # a shard other than the ring's first choice.
    events = {s["name"]: s for s in spans if s["cat"] == "event"}
    assert "fault.shard.route" in events
    assert events["fault.shard.route"]["parent"] == route["sid"]
    assert "router.fault_handoff" in events
    # The job span still stitches under the (rerouted) route span.
    assert parent_of(spans, "service.job")["name"] == "route"


def test_trace_records_client_retry_as_event():
    # A service that fails the first executor attempt; the queue retries
    # and the trace shows both the failure and the served result.
    plan = FaultPlan.from_dict(
        {"seed": 3, "faults": [{"site": "queue.execute", "mode": "error", "times": 1}]}
    )
    FAULTS.arm(plan)
    TRACER.enable(bounded=True, process="service")
    service = AllocationService(ServiceConfig())
    ctx = TraceContext.new()
    job = service.submit(make_request(), trace=ctx)
    for _ in range(4):  # first dispatch fails and requeues; second serves
        service.process_once()
        if job.status == "done":
            break
    assert job.status == "done"
    assert job.attempts == 2

    spans = TRACER.spans_for(ctx.trace_id)
    assert orphan_spans(spans) == []
    retry = next(s for s in spans if s["name"] == "service.retry")
    assert retry["cat"] == "event"
    assert retry["args"]["attempt"] == 1
    assert "injected fault" in retry["args"]["error"]
    # The eventual service.job span reports the successful attempt.
    job_span = next(s for s in spans if s["name"] == "service.job")
    assert job_span["args"]["job"] == job.job_id
    service.stop()


def ancestors(spans, span):
    """Names on *span*'s parent chain, innermost first."""
    by_sid = {s["sid"]: s for s in spans}
    names = []
    while span["parent"] in by_sid:
        span = by_sid[span["parent"]]
        names.append(span["name"])
    return names


# The ids keep their earlier "0-" (inline) prefix so the test ids stay
# stable across the suite's history.
@pytest.mark.parametrize(
    "verify",
    [
        pytest.param("cached-only", id="0-cached-only"),
        pytest.param("strict", id="0-strict"),
    ],
)
def test_served_miss_trace_reaches_its_passes(verify):
    TRACER.enable(bounded=True, process="service")
    service = AllocationService(ServiceConfig(verify=verify))
    ctx = TraceContext.new()
    job = service.submit(make_request(), trace=ctx)
    service.process_once()
    service.stop()
    assert job.status == "done" and job.cache == "miss"

    # Nothing the miss ran (strict verification included) roots a trace
    # of its own in the bounded buffer.
    assert {s["trace"] for s in TRACER.spans} == {ctx.trace_id}
    spans = TRACER.spans_for(ctx.trace_id)
    assert orphan_spans(spans) == []
    if verify == "strict":
        # The verifier's re-analysis of the computed artifact.
        assert ["service.job"] in [
            ancestors(spans, s) for s in spans if s["name"] == "static-stats"
        ]
    (execute,) = [s for s in spans if s["name"] == "worker.execute"]
    assert ancestors(spans, execute) == ["service.job"]
    assert execute["proc"] == "service"
    # Every pass and analysis span of the miss hangs under the worker.
    for category in ("pass", "analysis"):
        inner = [s for s in spans if s["cat"] == category]
        assert inner, f"no {category} spans in the served trace"
        for span in inner:
            assert "worker.execute" in ancestors(spans, span)
            assert span["proc"] == execute["proc"]


def test_ci_chaos_plan_replay_keeps_traces_coherent():
    FAULTS.arm(load_plan("examples/faultplans/ci-chaos.json"))
    TRACER.enable(bounded=True, process="frontend")
    router = make_router()
    contexts = []
    for i in range(6):
        ctx = TraceContext.new(kernel=f"k{i}")
        contexts.append(ctx)
        status = router.submit(make_request(trip_count=8 + i), trace=ctx)
        assert router.wait(status["job_id"])["status"] == "done"

    fired = FAULTS.stats()["injected_total"]
    assert fired > 0, "the chaos plan must actually inject on this sequence"
    event_names = []
    for ctx in contexts:
        spans = TRACER.spans_for(ctx.trace_id)
        assert spans
        assert orphan_spans(spans) == []
        event_names.extend(s["name"] for s in spans if s["cat"] == "event")
    # The injected queue failure surfaces as a retry event in its trace.
    assert "service.retry" in event_names


def test_chrome_trace_export_groups_by_process():
    TRACER.enable(bounded=True, process="frontend")
    router = make_router()
    ctx = TraceContext.new()
    status = router.submit(make_request(), trace=ctx)
    assert router.wait(status["job_id"])["status"] == "done"
    payload = {"trace_id": ctx.trace_id, "spans": TRACER.spans_for(ctx.trace_id)}
    doc = chrome_trace(payload)
    events = doc["traceEvents"]
    assert any(e["ph"] == "X" for e in events)
    # One metadata lane per process, named after the span's proc label.
    lanes = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert "frontend" in lanes
    # Valid JSON end to end (what `repro trace fetch` writes to disk).
    json.dumps(doc)


# ----------------------------------------------------------------------
# Telemetry must never change results
# ----------------------------------------------------------------------
def test_artifacts_byte_identical_with_telemetry_on_and_off(tmp_path):
    request = make_request()

    service_off = AllocationService(ServiceConfig())
    job_off = service_off.submit(request)
    service_off.process_once()
    assert job_off.status == "done"
    service_off.stop()

    TRACER.enable(bounded=True, process="service")
    EVENTS.enable(str(tmp_path / "events.jsonl"))
    service_on = AllocationService(ServiceConfig())
    job_on = service_on.submit(request, trace=TraceContext.new())
    service_on.process_once()
    assert job_on.status == "done"
    service_on.stop()

    assert job_off.artifact == job_on.artifact  # bit-identical bytes
    assert job_off.key == job_on.key
    # The trace id never leaks into the artifact or its cache key.
    assert job_on.trace.trace_id not in job_on.artifact.decode("utf-8")


def test_structured_events_log_one_line_per_request(tmp_path):
    path = tmp_path / "events.jsonl"
    TRACER.enable(bounded=True, process="service")
    EVENTS.enable(str(path))
    service = AllocationService(ServiceConfig())
    ctx = TraceContext.new()
    job = service.submit(make_request(), trace=ctx)
    service.process_once()
    assert job.status == "done"
    service.stop()
    EVENTS.close()

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 1  # one structured record per request
    record = lines[0]
    assert record["trace"] == ctx.trace_id
    assert record["status"] == "done"
    assert record["proc"] == "service"
    assert record["retries"] == 0
    assert record["latency_ms"] >= 0.0
    assert "alloc" in record["stages_ms"]


# ----------------------------------------------------------------------
# /v1/metrics exposition
# ----------------------------------------------------------------------
def test_router_prometheus_exposition_round_trips():
    TRACER.enable(bounded=True, process="frontend")
    router = make_router()
    for i in range(5):
        status = router.submit(make_request(trip_count=4 + i))
        assert router.wait(status["job_id"])["status"] == "done"

    samples = router.metrics_samples()
    text = render_prometheus(samples)
    parsed = parse_prometheus(text)

    routed = sum(
        value
        for (name, labels), value in parsed.items()
        if name == "repro_router_routed_total" and labels
    )
    assert routed == 5.0
    served = sum(
        value
        for (name, labels), value in parsed.items()
        if name == "repro_service_requests_total"
    )
    assert served == 5.0
    # Histogram series parse too, with cumulative bucket counts.
    route_counts = [
        value
        for (name, labels), value in parsed.items()
        if name == "repro_router_route_s_count"
    ]
    assert route_counts and route_counts[0] == 5.0


def test_parse_prometheus_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus("this is not an exposition line\n")


def test_metrics_sample_includes_stage_histograms():
    service = AllocationService(ServiceConfig())
    job = service.submit(make_request())
    service.process_once()
    assert job.status == "done"
    service.stop()

    labels, sample = ({}, service.metrics_sample())
    assert sample["counters"]["service.requests"] == 1.0
    stage_names = [k for k in sample["histograms"] if k.startswith("service.stage_s.")]
    assert "service.stage_s.alloc" in stage_names
    assert "service.stage_s.queue_wait" in stage_names
    text = render_prometheus([(labels, sample)])
    assert "repro_service_stage_s_alloc_bucket" in text


# ----------------------------------------------------------------------
# SLO tracking and /v1/stats
# ----------------------------------------------------------------------
def test_slo_tracker_error_budget_burn():
    slo = SLOTracker(availability_target=0.9)
    for _ in range(18):
        slo.record(ok=True, latency_s=0.01, good=True)
    slo.record(ok=False)
    slo.record(ok=False)
    snap = slo.snapshot()
    assert snap["requests"] == 20
    assert snap["availability"] == pytest.approx(0.9)
    # 10% budget on 20 requests = 2 allowed failures, both consumed.
    assert snap["error_budget"]["allowed"] == pytest.approx(2.0)
    assert snap["error_budget"]["consumed"] == 2
    assert snap["error_budget"]["burn"] == pytest.approx(1.0)
    assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p50"]


def test_router_stats_expose_slo_and_per_shard_health():
    router = make_router()
    for _ in range(3):
        status = router.submit(make_request())
        assert router.wait(status["job_id"])["status"] == "done"
    router.check_health()
    stats = router.stats()
    block = stats["router"]

    slo = block["slo"]
    assert slo["requests"] == 3
    assert slo["availability"] == 1.0
    assert slo["meets"]["availability"] is True

    shards = block["shards"]
    assert set(shards) == {"s0", "s1", "s2"}
    for entry in shards.values():
        assert entry["uptime_s"] >= 0.0
        assert entry["last_health_check"] is not None


def test_loadgen_report_carries_slo_and_stage_breakdown():

    TRACER.enable(bounded=True, process="loadgen")
    router = make_router()
    config = LoadgenConfig(requests=8, seed=11)
    report = run_loadgen(router, config)
    assert report["slo"]["requests"] == 8
    assert report["slo"]["goodput_ratio"] > 0.0
    assert report["stages_ms"], "stage breakdown must be populated"
    for stage, entry in report["stages_ms"].items():
        assert entry["count"] > 0
        assert entry["p99"] >= 0.0
    assert report["trace_ids"], "telemetry-on runs record sample trace ids"
    assert TRACER.spans_for(report["trace_ids"][0])


# ----------------------------------------------------------------------
# /v1/trace and /v1/metrics over HTTP, on both mounts
# ----------------------------------------------------------------------
@pytest.fixture(params=["single", "frontend"])
def http_mount(request):
    """A client of a single server, or of a frontend over two local shards."""
    import threading

    from repro.service import make_server, make_shard_server, shutdown_server
    from repro.service.client import ServiceClient

    TRACER.enable(bounded=True, process=request.param)
    if request.param == "single":
        server = make_server("127.0.0.1", 0, ServiceConfig())
        stop = shutdown_server
    else:
        router = ShardRouter(
            [LocalShard(f"s{i}", ServiceConfig()) for i in range(2)]
        )
        server = make_shard_server(
            "127.0.0.1", 0, router=router, health_interval_s=None
        )

        def stop(server):
            server.shutdown()
            server.server_close()
            router.close()

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield request.param, ServiceClient(f"http://{host}:{port}", retries=0)
    stop(server)
    thread.join(timeout=5)


def test_trace_and_metrics_over_http(http_mount):
    mount, client = http_mount
    ctx = TraceContext.new(kernel="mac")
    status = client.submit_request(make_request(), trace=ctx)
    assert client.wait(status["job_id"])["status"] == "done"

    payload = client.trace(ctx.trace_id)
    assert payload["trace_id"] == ctx.trace_id
    spans = payload["spans"]
    names = span_names(spans)
    assert "service.job" in names and "worker.execute" in names
    # In-process shards share the frontend's buffer; a merge that also
    # took their spans would serve each one twice.
    sids = [s["sid"] for s in spans]
    assert len(sids) == len(set(sids))
    assert orphan_spans(spans) == []

    parsed = parse_prometheus(client.metrics_text())
    families = {name for name, _labels in parsed}
    assert "repro_service_requests_total" in families
    served = sum(
        value
        for (name, _labels), value in parsed.items()
        if name == "repro_service_requests_total"
    )
    assert served == 1.0
    samples = client.metrics_json()["samples"]
    # single: the service's own sample; frontend: the router's own, one
    # routed count per shard, and each shard's registry.
    assert len(samples) == (1 if mount == "single" else 1 + 2 * 2)
    for entry in samples:
        assert set(entry) == {"labels", "sample"}
