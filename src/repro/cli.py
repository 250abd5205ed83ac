"""Command-line interface: regenerate the paper's evaluation from a shell.

Usage::

    python -m repro table II                # one table (I..VII)
    python -m repro figure 10               # one figure (1, 10, 11)
    python -m repro all                     # everything
    python -m repro compare                 # paper-vs-measured shapes
    python -m repro suite SPECfp --scale 0.02   # inspect a suite
    python -m repro allocate --method bpc --banks 2 --registers 32  # demo
    python -m repro --jobs 4 all            # fan programs over 4 processes
    python -m repro --pass-stats table II   # + pass/cache statistics
    python -m repro --trace out.json table II    # Chrome-trace the run
    python -m repro --metrics out.json table II  # machine-readable metrics
    python -m repro --explain v5 allocate        # why did v5 land there?
    python -m repro --profile - table VII        # conflict hotspot table
    python -m repro bench record                 # benchmark history record
    python -m repro bench diff OLD.json NEW.json # regression gate (CI)
    python -m repro measure --machine ooo        # OoO width/port sweep
    python -m repro measure --machine ooo --issue-width 1 --read-ports 1 \
        --no-rename --out deg.json               # degenerate parity dump
    python -m repro serve --port 8377            # allocation service
    python -m repro serve --shards 3             # sharded worker fleet
    python -m repro serve --journal DIR          # crash-durable job queue
    python -m repro request --deadline-ms 50     # client for `serve`
    python -m repro request --job-id j000002     # pre-restart job status
    python -m repro loadgen --rolling-restart    # zero-goodput-loss proof
    python -m repro loadgen --requests 200       # seeded traffic harness
    python -m repro loadgen --server URL --record DIR  # + history record
    python -m repro verify ART.json --ir k.ir    # re-check an artifact
    python -m repro --faults plan.json serve     # chaos-test the service
    python -m repro trace fetch TRACE_ID --server URL  # merged Chrome trace
    python -m repro top --server URL             # live SLO/fleet view

Scale options apply to every subcommand touching suites; defaults are the
test-sized scales (fast).  The benches under ``benchmarks/`` use larger
calibrated defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import ALL_FIGURES, ALL_TABLES, ExperimentContext
from .sim import count_conflict_relevant


def _resolve_cli_jobs(args: argparse.Namespace) -> int:
    """``--jobs`` wins, then ``REPRO_JOBS``, then every CPU."""
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        return max(1, jobs)
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _build_context(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext(
        spec_scale=args.spec_scale,
        cnn_scale=args.cnn_scale,
        idft_points=args.idft_points,
        seed=args.seed,
        jobs=_resolve_cli_jobs(args),
    )


def _cmd_table(args: argparse.Namespace) -> int:
    name = args.name.upper()
    if name not in ALL_TABLES:
        print(f"unknown table {args.name!r}; available: {', '.join(ALL_TABLES)}")
        return 2
    ctx = _build_context(args)
    print(ALL_TABLES[name](ctx).render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in ALL_FIGURES:
        print(f"unknown figure {args.name!r}; available: {', '.join(ALL_FIGURES)}")
        return 2
    ctx = _build_context(args)
    print(ALL_FIGURES[args.name](ctx).render())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    ctx = _build_context(args)
    for name, builder in ALL_TABLES.items():
        print(builder(ctx).render())
        print()
    for name, builder in ALL_FIGURES.items():
        print(builder(ctx).render())
        print()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .experiments import compare

    ctx = _build_context(args)
    report = compare(ctx)
    print(report.render())
    return 0 if report.all_hold else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    ctx = _build_context(args)
    suite = ctx.suite(args.name)
    print(f"suite {suite.name}: {len(suite)} programs")
    for program in suite.programs:
        functions = program.functions()
        reles = sum(count_conflict_relevant(f) for f in functions)
        instrs = sum(f.instruction_count() for f in functions)
        print(
            f"  {program.name:<24} category={program.category:<14} "
            f"fns={len(functions):<5} instrs={instrs:<7} reles={reles}"
        )
    return 0


def _demo_kernel(trip_count: int):
    """The demo kernel `repro allocate` and `repro request` share."""
    from .ir import IRBuilder

    b = IRBuilder("demo")
    xs = [b.const(float(i + 1)) for i in range(4)]
    acc = b.const(0.0)
    with b.loop(trip_count=trip_count):
        for i in range(len(xs) - 1):
            product = b.arith("fmul", xs[i], xs[i + 1])
            b.arith_into(acc, "fadd", acc, product)
    b.ret(acc)
    return b.finish()


def _cmd_allocate(args: argparse.Namespace) -> int:
    """Allocate a demo kernel (or ``--ir`` text) and print statistics."""
    from .banks import BankedRegisterFile
    from .ir import print_function
    from .prescount import PipelineConfig, run_pipeline
    from .sim import analyze_static

    if args.ir:
        return _allocate_ir(args)
    fn = _demo_kernel(args.trip_count)
    register_file = BankedRegisterFile(args.registers, args.banks)
    result = run_pipeline(fn, PipelineConfig(register_file, args.method))
    stats = analyze_static(result.function, register_file)
    print(f"; method={args.method} file={register_file.describe()}")
    from . import obs

    if obs.TRACER.wants("profile"):
        # Attribute the demo kernel's expected conflicts, then print the
        # listing annotated with per-site stall cycles.
        from .sim import estimate_dynamic_conflicts

        estimate_dynamic_conflicts(result.function, register_file)
        print(obs.Profile(obs.TRACER.spans).annotate(result.function))
    else:
        print(print_function(result.function))
    print(
        f"; static bank conflicts: {stats.bank_conflicts}   "
        f"spills: {result.spill_count}   copies: {result.copies_inserted}"
    )
    if args.out:
        # Same schema (and content address) the service cache stores, so
        # CLI output and service responses are byte-for-byte diffable.
        from .service import artifact_bytes, build_artifact

        artifact = build_artifact(
            fn,
            {"registers": args.registers, "banks": args.banks},
            args.method,
        )
        with open(args.out, "wb") as fh:
            fh.write(artifact_bytes(artifact))
        print(f"; wrote artifact {artifact['key'][:12]}… to {args.out}")
    return 0


def _allocate_ir(args: argparse.Namespace) -> int:
    """``repro allocate --ir FILE``: allocate submitted IR text.

    Multi-function text takes the module path; with ``--incremental``
    fragments are reused from the store (``--store DIR`` persists it
    across invocations), so re-allocating a module where K of N
    functions changed re-runs only those K.
    """
    from .service import (
        AllocationCache,
        RequestError,
        artifact_bytes,
        build_artifact,
        build_module_artifact,
        normalize_request,
    )

    if args.ir == "-":
        text = sys.stdin.read()
    else:
        with open(args.ir, encoding="utf-8") as fh:
            text = fh.read()
    spec = {"registers": args.registers, "banks": args.banks}
    counters = None
    try:
        # The service's own normalization decides the kind (from the
        # parsed function count), so this artifact is the served one.
        request = normalize_request(
            {"ir": text, "file": spec, "method": args.method}
        )
        ir = request["ir"]
        if request["kind"] == "module":
            if args.incremental:
                counters = {}
                artifact = build_module_artifact(
                    ir, spec, args.method,
                    store=AllocationCache(args.store), counters=counters,
                )
            else:
                artifact = build_module_artifact(ir, spec, args.method)
        else:
            artifact = build_artifact(ir, spec, args.method)
    except RequestError as exc:
        print(f"allocate: {exc}", file=sys.stderr)
        return 2
    data = artifact_bytes(artifact)
    summary = {
        "key": artifact["key"],
        "method": artifact["method"],
        "stats": artifact["stats"],
    }
    if "functions" in artifact:
        summary["functions"] = len(artifact["functions"])
    if counters is not None:
        summary["incremental"] = dict(counters)
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"; wrote artifact {artifact['key'][:12]}… to {args.out}")
    return 0


def _cmd_selfcheck() -> int:
    """Run the golden-digest self-check; 0 iff every digest matches."""
    from .selfcheck import SelfCheckError, run_selfcheck

    try:
        summary = run_selfcheck()
    except SelfCheckError as exc:
        print(f"selfcheck: FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"selfcheck: ok (methods {', '.join(summary['methods'])})",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Independently re-check an allocation artifact file."""
    from .resilience import AllocationVerifier

    try:
        with open(args.artifact, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"verify: cannot read {args.artifact!r}: {exc}", file=sys.stderr)
        return 2
    original_ir = None
    if args.ir:
        if args.ir == "-":
            original_ir = sys.stdin.read()
        else:
            with open(args.ir, encoding="utf-8") as fh:
                original_ir = fh.read()
    verifier = AllocationVerifier("strict")
    report = verifier.verify_bytes(data, original_ir=original_ir)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the allocation service until interrupted."""
    from .obs import EVENTS, TRACER
    from .selfcheck import SelfCheckError, run_selfcheck
    from .service import ServiceConfig, make_server, make_shard_server
    from .service.server import ServiceHandler, serve_until_stopped

    # Boot-time self-check: never serve allocations that drifted from
    # the recorded canned-kernel output.
    try:
        run_selfcheck()
    except SelfCheckError as exc:
        print(f"selfcheck failed; refusing to serve: {exc}", file=sys.stderr)
        return 1
    print("selfcheck ok", flush=True)

    # Tracing is on by default for `serve`, in bounded buffers: every
    # request roots or joins a trace, down to the passes a miss runs;
    # artifacts are unaffected.  The env vars make spawned shard
    # workers arm themselves too.
    if not args.no_telemetry:
        TRACER.enable(
            process="frontend" if args.shards > 0 else "service",
            bounded=True,
        )
        os.environ["REPRO_TELEMETRY"] = "1"
    if args.events:
        EVENTS.enable(args.events)
        os.environ["REPRO_EVENTS"] = args.events

    config = ServiceConfig(
        cache_dir=args.cache_dir,
        verify=args.verify,
        job_retries=args.job_retries,
        job_retention=args.retention,
        max_queue_depth=args.max_queue_depth,
        journal_dir=args.journal,
    )
    if args.verbose:
        ServiceHandler.verbose = True
    if args.shards > 0:
        server = make_shard_server(
            args.host, args.port, shards=args.shards, config=config
        )
        what = f"repro shard service ({args.shards} workers)"
    else:
        server = make_server(args.host, args.port, config)
        what = "repro service"

    def _announce() -> None:
        host, port = server.server_address[:2]
        print(f"{what} listening on http://{host}:{port}", flush=True)
        if TRACER.enabled:
            print(
                "telemetry on: GET /v1/metrics (Prometheus), "
                "GET /v1/trace/<trace_id> (merged spans)",
                flush=True,
            )

    serve_until_stopped(server, _announce)  # SIGTERM drains first
    return 0


def _parse_phases(raw: list[str] | None) -> tuple:
    """``DUR:RPS`` strings → the loadgen phase tuple."""
    if not raw:
        return ((0.5, 80.0), (0.5, 240.0))
    phases = []
    for text in raw:
        try:
            duration, rps = text.split(":", 1)
            phases.append((float(duration), float(rps)))
        except ValueError:
            raise SystemExit(
                f"loadgen: bad --phase {text!r}; expected DURATION:RPS"
            )
    return tuple(phases)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay a seeded open-loop traffic scenario; optionally record it."""
    from .service import ServiceConfig
    from .service.loadgen import (
        HttpTarget,
        LoadgenConfig,
        loadgen_record,
        run_loadgen,
    )

    if not args.no_telemetry:
        # Root trace contexts per arrival; against a telemetry-enabled
        # server the report's trace_ids are fetchable via `repro trace
        # fetch`, in direct mode the spans are recorded right here.
        from .obs import TRACER

        TRACER.enable(process="loadgen", bounded=True)

    config = LoadgenConfig(
        seed=args.seed,
        requests=args.requests,
        pool=args.pool,
        zipf_s=args.zipf_s,
        phases=_parse_phases(args.phase),
        deadline_frac=args.deadline_frac,
        deadline_choices_ms=tuple(args.deadline_ms or (5.0, 20.0, 100.0)),
        method=args.method,
        registers=args.registers,
        banks=args.banks,
        sample=args.sample,
        timeout_s=args.timeout,
    )
    router = None
    restart_thread = None
    restart_report: dict = {}
    if args.server:
        if args.rolling_restart:
            raise SystemExit(
                "loadgen: --rolling-restart needs the in-process fleet "
                "(drop --server); restart HTTP fleets via POST "
                "/v1/admin/drain per shard"
            )
        from .service.client import ServiceClient

        target = HttpTarget(ServiceClient(args.server, timeout=args.timeout))
    else:
        from .service import LocalShard, ShardRouter
        from .service.shard import shard_configs

        configs = shard_configs(
            ServiceConfig(cache_dir=args.cache_dir, journal_dir=args.journal),
            args.shards,
        )
        router = target = ShardRouter(
            [LocalShard(name, config) for name, config in configs.items()]
        )
        if args.rolling_restart:
            # Fire drain→restart→rejoin across the fleet mid-run: start
            # about halfway through the arrival schedule so requests
            # land on draining and freshly-recovered shards alike.
            import threading
            import time

            from .service.loadgen import build_schedule

            delay_s = build_schedule(config)[-1].at_s / 2.0

            def _restart():
                time.sleep(delay_s)
                restart_report.update(router.rolling_restart())

            restart_thread = threading.Thread(target=_restart, daemon=True)
            restart_thread.start()
    try:
        report = run_loadgen(target, config)
        if restart_thread is not None:
            restart_thread.join(timeout=60.0)
            report["rolling_restart"] = restart_report
    finally:
        if router is not None:
            router.close()
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.record:
        from .experiments import write_record

        record = loadgen_record(report, config, label=args.label)
        path = write_record(record, args.record, prefix="LOADGEN")
        print(f"recorded loadgen history to {path}", file=sys.stderr)
    ok = (
        report["failed"] == 0
        and report["verify_failed"] == 0
        and report["samples"]["mismatched"] == 0
    )
    return 0 if ok else 1


def _cmd_trace_fetch(args: argparse.Namespace) -> int:
    """Fetch one merged distributed trace and write Chrome-trace JSON."""
    from .obs import chrome_trace
    from .service import ServiceError
    from .service.client import ServiceClient

    client = ServiceClient(args.server, timeout=args.timeout)
    try:
        payload = client.trace(args.trace_id)
    except ServiceError as exc:
        print(f"trace fetch: {exc}", file=sys.stderr)
        return 1
    spans = payload.get("spans") or []
    if not spans:
        print(
            f"trace fetch: no spans for {args.trace_id!r} (telemetry off, "
            "trace evicted, or wrong id)",
            file=sys.stderr,
        )
        return 1
    doc = chrome_trace(payload)
    out = args.out or f"trace-{args.trace_id}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    procs = sorted({span.get("proc") or "?" for span in spans})
    print(
        f"wrote {len(spans)} spans across {len(procs)} processes "
        f"({', '.join(procs)}) to {out} "
        "(open in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def _render_top(stats: dict) -> str:
    """One ``repro top`` frame from a ``/v1/stats`` payload."""
    import time as _time

    lines = [
        f"repro top @ {_time.strftime('%H:%M:%S')}   "
        f"queue_depth={stats.get('queue_depth', 0)}"
    ]
    counters = stats.get("counters") or {}
    if counters:
        lines.append(
            "  counters: "
            + "  ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    router = stats.get("router") or {}
    slo = stats.get("slo") or router.get("slo")
    if slo:
        latency = slo.get("latency_ms") or {}
        budget = slo.get("error_budget") or {}
        meets = slo.get("meets") or {}
        met = "+".join(k for k, ok in sorted(meets.items()) if ok) or "none"
        lines.append(
            f"  slo: requests={slo.get('requests')} "
            f"availability={slo.get('availability')} "
            f"goodput={slo.get('goodput_ratio')} "
            f"p99_ms={latency.get('p99')} "
            f"budget_burn={budget.get('burn')} meets={met}"
        )
    if router:
        routed = router.get("routed") or {}
        meta = router.get("shards") or {}
        breakers = router.get("breakers") or {}
        for name in sorted(set(routed) | set(meta)):
            shard_meta = meta.get(name) or {}
            lines.append(
                f"  shard {name}: routed={routed.get(name, 0)} "
                f"uptime_s={shard_meta.get('uptime_s')} "
                f"last_health={shard_meta.get('last_health_check')} "
                f"breaker={breakers.get(name)}"
            )
    shards = stats.get("shards")
    if isinstance(shards, dict):
        for name, shard_stats in sorted(shards.items()):
            if not isinstance(shard_stats, dict):
                continue
            inner = shard_stats.get("counters") or {}
            lines.append(
                f"    {name}: requests={inner.get('requests', 0)} "
                f"cache_hits={inner.get('cache_hits', 0)} "
                f"depth={shard_stats.get('queue_depth', 0)}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view over ``/v1/stats`` (``--once`` for scripts)."""
    import time as _time

    from .service import ServiceError
    from .service.client import ServiceClient

    client = ServiceClient(args.server, timeout=args.timeout)
    try:
        while True:
            try:
                stats = client.stats()
            except ServiceError as exc:
                print(f"top: {exc}", file=sys.stderr)
                return 1
            frame = _render_top(stats)
            if not args.once:
                # Clear screen + home, like watch(1).
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            if args.once:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_request(args: argparse.Namespace) -> int:
    """Submit one allocation request to a running service."""
    from .ir import print_function
    from .service import ServiceError
    from .service.client import ServiceClient

    if args.job_id:
        # Query a prior job instead of resubmitting — the durable-queue
        # path after a crash or restart: journal recovery re-registers
        # the job (or its terminal tombstone) under the same id.
        client = ServiceClient(
            args.server, timeout=args.timeout, retries=args.retries
        )
        try:
            status = client.poll(args.job_id)
        except ServiceError as exc:
            print(f"request failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(status, sort_keys=True))
        if status.get("status") != "done":
            return 1
        if args.out:
            try:
                data = client.result(args.job_id)
            except ServiceError as exc:
                print(f"request failed: {exc}", file=sys.stderr)
                return 1
            with open(args.out, "wb") as fh:
                fh.write(data)
        return 0

    if args.ir == "-":
        ir = sys.stdin.read()
    elif args.ir:
        with open(args.ir, encoding="utf-8") as fh:
            ir = fh.read()
    else:
        ir = print_function(_demo_kernel(args.trip_count))

    client = ServiceClient(
        args.server, timeout=args.timeout, retries=args.retries
    )
    try:
        status = client.submit(
            ir,
            registers=args.registers,
            banks=args.banks,
            subgroups=args.subgroups,
            method=args.method,
            deadline_ms=args.deadline_ms,
        )
        status = client.wait(status["job_id"], timeout=args.timeout)
        if status["status"] == "failed":
            print(json.dumps(status, sort_keys=True))
            return 1
        data = client.result(status["job_id"])
    except ServiceError as exc:
        print(f"request failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    artifact = json.loads(data)
    summary = {
        "job_id": status["job_id"],
        "cache": status["cache"],
        "requested_method": status["requested_method"],
        "served_method": status["served_method"],
        "degraded": status["degraded"],
        "key": artifact["key"],
        "stats": artifact["stats"],
    }
    print(json.dumps(summary, sort_keys=True))
    if args.fail_on_degrade and status["degraded"]:
        return 3
    return 0


def _measure_machine_spec(args: argparse.Namespace) -> dict | None:
    """The (canonical) machine spec a ``repro measure`` invocation names."""
    if args.machine == "dsa":
        return None
    from .sim import OooConfig

    return OooConfig(
        issue_width=args.issue_width[0] if args.issue_width else 2,
        read_ports=args.read_ports[0] if args.read_ports else 2,
        rob_size=args.rob,
        iq_size=args.iq,
        rename=not args.no_rename,
    ).to_dict()


def _cmd_measure(args: argparse.Namespace) -> int:
    """Cycle measurement on a selectable machine model.

    ``--machine dsa`` measures the in-order model; ``--machine ooo``
    sweeps issue width x read ports (repeat ``--issue-width`` /
    ``--read-ports`` for multiple points) and prints the
    penalty-survival table.  ``--out`` writes the per-program
    conflict/alignment cycle dump (canonical JSON — two dumps from
    bit-identical machines compare equal under ``cmp``), ``--record``
    folds the sweep into an ``OOO_*.json`` history record for
    ``repro bench diff``.
    """
    from .experiments import (
        ooo_record,
        ooo_sweep,
        parity_dump,
        survival_table,
        write_record,
    )
    from .experiments.ooo_sweep import SWEEP_METHODS

    ctx = _build_context(args)
    methods = tuple(args.method) if args.method else SWEEP_METHODS
    programs = tuple(args.program) if args.program else None
    where = dict(suite=args.suite, platform=args.platform, banks=args.banks)

    if args.out:
        dump = parity_dump(
            ctx, methods=methods, programs=programs,
            machine_spec=_measure_machine_spec(args), **where,
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump)
        print(f"wrote per-program cycle dump to {args.out}")

    if args.machine == "dsa":
        rows = []
        for method in methods:
            results = ctx.results(
                args.suite, args.platform, args.banks, method,
                measure_dynamic=False, measure_cycles=True,
            )
            if programs:
                results = [r for r in results if r.program in programs]
            rows.append(
                (method, sum(r.cycles or 0.0 for r in results),
                 sum(r.conflict_cycles or 0.0 for r in results),
                 sum(r.alignment_cycles or 0.0 for r in results))
            )
        from .experiments import render_table

        print(render_table(
            f"DSA in-order cycles — {args.suite} on "
            f"{args.platform}:{args.banks}",
            ["method", "cycles", "conflict cycles", "alignment cycles"],
            rows,
        ))
        return 0

    widths = tuple(args.issue_width) if args.issue_width else (1, 2, 4)
    ports = tuple(args.read_ports) if args.read_ports else (1, 2, 4)
    sweep = ooo_sweep(
        ctx, methods=methods, widths=widths, ports=ports,
        rob_size=args.rob, iq_size=args.iq, rename=not args.no_rename,
        programs=programs, **where,
    )
    print(survival_table(sweep))
    if args.record:
        record = ooo_record(ctx, sweep, label=args.label)
        path = write_record(record, args.record, prefix="OOO")
        print(f"recorded {len(record['programs'])} sweep entries to {path}")
    return 0


def _cmd_bench_record(args: argparse.Namespace) -> int:
    """Collect a benchmark history record and write it to disk."""
    from .experiments import DEFAULT_HISTORY_DIR, collect_record, write_record

    ctx = _build_context(args)
    record = collect_record(ctx, label=args.label)
    path = write_record(record, args.out or DEFAULT_HISTORY_DIR)
    totals = record["totals"]
    print(f"recorded {len(record['programs'])} program entries to {path}")
    print(
        "  totals: "
        + "  ".join(f"{name}={totals[name]:g}" for name in sorted(totals))
    )
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare two history records; non-zero exit on regression."""
    from .experiments import RecordError, diff_records, load_record

    try:
        old = load_record(args.old)
        new = load_record(args.new)
    except RecordError as exc:
        print(f"bench diff: {exc}", file=sys.stderr)
        return 2
    report = diff_records(
        old,
        new,
        old_path=args.old,
        new_path=args.new,
        threshold_pct=args.threshold_pct,
        abs_floor=args.abs_floor,
        allow_config_mismatch=args.allow_config_mismatch,
    )
    print(report.render())
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PresCount (CGO 2024) reproduction: regenerate tables, "
        "figures, and suites.",
    )
    parser.add_argument("--spec-scale", type=float, default=0.02,
                        help="SPECfp suite scale (default 0.02)")
    parser.add_argument("--cnn-scale", type=float, default=0.2,
                        help="CNN-KERNEL suite scale (default 0.2)")
    parser.add_argument("--idft-points", type=int, default=8,
                        help="IDFT size for the DSA suite (default 8)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for suite runs (default: REPRO_JOBS env "
        "var, else all CPUs; 1 = serial). Results are identical at any "
        "job count.",
    )
    parser.add_argument(
        "--pass-stats", action="store_true",
        help="print per-pass timing and analysis-cache statistics to "
        "stderr after the command",
    )
    parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="record nested spans for every phase/stage/analysis and "
        "write Chrome-trace JSON (open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics", metavar="OUT.json", default=None,
        help="record pipeline metrics (spills, bank pressure, conflict "
        "cost deltas, ...) and write them as JSON; '-' renders a table "
        "to stderr instead",
    )
    parser.add_argument(
        "--explain", metavar="VREG", default=None,
        help="record Algorithm 1 decisions and print the decision "
        "history of one virtual register (e.g. v5) to stderr",
    )
    parser.add_argument(
        "--profile", metavar="OUT.json", default=None,
        help="attribute every conflict stall cycle to its (function, "
        "loop nest, block, instruction, bank pair) site and write the "
        "profile as JSON; '-' renders a top-N hotspot table to stderr, "
        "a .folded suffix writes flamegraph-compatible collapsed stacks",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="allocate a canned kernel with every method and hard-fail "
        "unless each artifact matches its recorded sha256 digest; runs "
        "before the subcommand (bare `repro --selfcheck` runs it alone)",
    )
    parser.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="arm a seeded fault-injection plan (chaos testing; see "
        "docs/RESILIENCE.md). Also settable via the REPRO_FAULTS "
        "environment variable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate one table (I..VII)")
    p_table.add_argument("name")
    p_table.set_defaults(func=_cmd_table)

    p_figure = sub.add_parser("figure", help="regenerate one figure (1/10/11)")
    p_figure.add_argument("name")
    p_figure.set_defaults(func=_cmd_figure)

    p_all = sub.add_parser("all", help="regenerate every table and figure")
    p_all.set_defaults(func=_cmd_all)

    p_compare = sub.add_parser(
        "compare", help="paper-vs-measured shape comparison"
    )
    p_compare.set_defaults(func=_cmd_compare)

    p_suite = sub.add_parser("suite", help="describe a generated suite")
    p_suite.add_argument("name", choices=["SPECfp", "CNN-KERNEL", "DSA-OP"])
    p_suite.set_defaults(func=_cmd_suite)

    p_alloc = sub.add_parser("allocate", help="allocate a demo kernel")
    p_alloc.add_argument("--method", choices=["non", "bcr", "bpc"], default="bpc")
    p_alloc.add_argument("--banks", type=int, default=2)
    p_alloc.add_argument("--registers", type=int, default=32)
    p_alloc.add_argument("--trip-count", type=int, default=16)
    p_alloc.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the result artifact (canonical JSON, same "
        "schema and content address the service cache stores)",
    )
    p_alloc.add_argument(
        "--ir", default=None, metavar="FILE",
        help="allocate this IR text instead of the demo kernel ('-' "
        "reads stdin); multi-function text builds a module artifact",
    )
    p_alloc.add_argument(
        "--incremental", action="store_true",
        help="module IR only: reuse per-function fragments from the "
        "store, re-running the pipeline only for changed functions",
    )
    p_alloc.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist the fragment store under DIR so --incremental "
        "reuse works across invocations (default: in-memory, one run)",
    )
    p_alloc.set_defaults(func=_cmd_allocate)

    p_verify = sub.add_parser(
        "verify",
        help="independently re-check an allocation artifact "
        "(canonical bytes, schema/key, structural, bank legality, "
        "semantics)",
    )
    p_verify.add_argument("artifact", metavar="ARTIFACT.json")
    p_verify.add_argument(
        "--ir", default=None, metavar="FILE",
        help="the originally submitted IR ('-' reads stdin); enables "
        "the content-address recomputation and the interpreter-backed "
        "semantic equivalence check",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_serve = sub.add_parser(
        "serve", help="run the allocation service (HTTP/JSON)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8377,
        help="listen port (0 binds a free port; default 8377)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the artifact cache content-addressed under DIR "
        "(default: memory only)",
    )
    p_serve.add_argument(
        "--verify", choices=["strict", "cached-only", "off"],
        default="cached-only",
        help="independent artifact verification: 'strict' re-checks "
        "every artifact before it is cached or served, 'cached-only' "
        "re-checks on-disk cache loads (default), 'off' disables",
    )
    p_serve.add_argument(
        "--job-retries", type=int, default=2,
        help="whole-job retry budget before a failing job dead-letters "
        "(default 2)",
    )
    p_serve.add_argument(
        "--retention", type=int, default=1024, metavar="N",
        help="finished jobs kept pollable before oldest-first eviction "
        "(default 1024)",
    )
    p_serve.add_argument(
        "--max-queue-depth", type=int, default=1024,
        help="queue depth at which submits are shed with 503 + "
        "Retry-After (default 1024)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="boot N worker processes behind a consistent-hash shard "
        "router (0 = single-process service; each worker owns the "
        "cache shard DIR/shard-sK, see docs/SCALING.md)",
    )
    p_serve.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead job journal under DIR: every accepted job is "
        "journaled before the submit returns, and on restart "
        "accepted-but-unfinished jobs are replayed (sharded mode "
        "splits DIR/shard-sK per worker; see docs/RESILIENCE.md)",
    )
    p_serve.add_argument(
        "--no-telemetry", action="store_true",
        help="disable fleet telemetry (request spans and /v1/trace "
        "payloads; /v1/metrics and /v1/stats stay available)",
    )
    p_serve.add_argument(
        "--events", default=None, metavar="OUT.jsonl",
        help="append one structured JSONL event per finished request "
        "(trace id, tiers, stage timings, cache disposition, retries); "
        "shard workers append to the same file",
    )
    p_serve.add_argument(
        "-v", "--verbose", action="store_true",
        help="log every HTTP request to stderr",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="seeded open-loop traffic harness (arrival ramps, Zipf "
        "popularity, deadline mixes) reporting p50/p99/p999 + goodput",
    )
    p_loadgen.add_argument(
        "--server", default=None, metavar="URL",
        help="target a running service over HTTP (single-process or "
        "sharded; default: an in-process shard fleet)",
    )
    p_loadgen.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="in-process fleet size when no --server is given (default 3)",
    )
    p_loadgen.add_argument(
        "--requests", type=int, default=60,
        help="total arrivals scheduled (exact; default 60)",
    )
    p_loadgen.add_argument(
        "--pool", type=int, default=12,
        help="distinct kernels in the popularity pool (default 12)",
    )
    p_loadgen.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="Zipf skew s over the kernel pool; larger = hotter head "
        "(default 1.1)",
    )
    p_loadgen.add_argument(
        "--phase", action="append", metavar="DUR:RPS", default=None,
        help="arrival ramp phase, repeatable in order "
        "(default 0.5:80 then 0.5:240)",
    )
    p_loadgen.add_argument(
        "--deadline-frac", type=float, default=0.0,
        help="fraction of requests carrying a deadline (default 0)",
    )
    p_loadgen.add_argument(
        "--deadline-ms", action="append", type=float, default=None,
        metavar="MS",
        help="deadline menu entry for that fraction, repeatable "
        "(default 5 20 100)",
    )
    p_loadgen.add_argument(
        "--method", choices=["non", "bcr", "bpc"], default="bpc"
    )
    p_loadgen.add_argument("--registers", type=int, default=16)
    p_loadgen.add_argument("--banks", type=int, default=2)
    p_loadgen.add_argument(
        "--sample", type=int, default=4,
        help="distinct kernels whose responses are checked bit-identical "
        "against a direct single-process run (default 4)",
    )
    p_loadgen.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request completion timeout in seconds (default 30)",
    )
    p_loadgen.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache shard base directory for the in-process fleet "
        "(default: memory only)",
    )
    p_loadgen.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead job journal base directory for the in-process "
        "fleet (DIR/shard-sK per shard; see docs/RESILIENCE.md)",
    )
    p_loadgen.add_argument(
        "--rolling-restart", action="store_true",
        help="drain→restart→rejoin every in-process shard one at a time "
        "halfway through the run; the report gains a rolling_restart "
        "block and goodput must not drop (in-process fleet only)",
    )
    p_loadgen.add_argument(
        "--record", default=None, metavar="DIR",
        help="write a LOADGEN_<timestamp>.json history record under DIR "
        "(BENCH schema; gate with `repro bench diff`)",
    )
    p_loadgen.add_argument(
        "--label", default="",
        help="free-form label stored in the record",
    )
    p_loadgen.add_argument(
        "--no-telemetry", action="store_true",
        help="do not attach trace contexts to generated requests (the "
        "report then carries no trace_ids)",
    )
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_trace = sub.add_parser(
        "trace",
        help="distributed traces from a telemetry-enabled service",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_fetch = trace_sub.add_parser(
        "fetch",
        help="GET /v1/trace/<trace_id> and write the merged spans as "
        "Chrome-trace JSON (frontend, shards, and workers in one view)",
    )
    p_trace_fetch.add_argument("trace_id", metavar="TRACE_ID")
    p_trace_fetch.add_argument(
        "--server", default="http://127.0.0.1:8377", metavar="URL"
    )
    p_trace_fetch.add_argument(
        "--out", "-o", default=None, metavar="FILE",
        help="output path (default trace-<trace_id>.json)",
    )
    p_trace_fetch.add_argument("--timeout", type=float, default=10.0)
    p_trace_fetch.set_defaults(func=_cmd_trace_fetch)

    p_top = sub.add_parser(
        "top",
        help="live terminal view of /v1/stats: counters, SLO error "
        "budget, per-shard routing/uptime/breaker state",
    )
    p_top.add_argument(
        "--server", default="http://127.0.0.1:8377", metavar="URL"
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh interval in seconds (default 2)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing; for "
        "scripts and CI)",
    )
    p_top.add_argument("--timeout", type=float, default=10.0)
    p_top.set_defaults(func=_cmd_top)

    p_req = sub.add_parser(
        "request", help="submit one request to a running service"
    )
    p_req.add_argument(
        "--server", default="http://127.0.0.1:8377", metavar="URL"
    )
    p_req.add_argument(
        "--ir", default=None, metavar="FILE",
        help="IR text to allocate ('-' reads stdin; default: the demo "
        "kernel `repro allocate` uses)",
    )
    p_req.add_argument("--method", choices=["non", "bcr", "bpc"], default="bpc")
    p_req.add_argument("--banks", type=int, default=2)
    p_req.add_argument("--registers", type=int, default=32)
    p_req.add_argument("--subgroups", type=int, default=0)
    p_req.add_argument("--trip-count", type=int, default=16)
    p_req.add_argument(
        "--deadline-ms", type=float, default=None,
        help="deadline budget; an exhausted budget degrades down the "
        "bpc→bcr→non ladder instead of timing out",
    )
    p_req.add_argument("--timeout", type=float, default=30.0)
    p_req.add_argument(
        "--retries", type=int, default=2,
        help="client retries on transient failures (timeouts, "
        "connection errors, 429/503 shed responses; default 2)",
    )
    p_req.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the artifact bytes verbatim",
    )
    p_req.add_argument(
        "--fail-on-degrade", action="store_true",
        help="exit 3 when the served tier is below the requested method",
    )
    p_req.add_argument(
        "--job-id", default=None, metavar="JOB",
        help="query the status of a prior (possibly pre-restart) job "
        "instead of submitting; with --journal on the server the id "
        "survives crashes (exit 0 done, 1 otherwise; --out fetches "
        "the artifact bytes when done)",
    )
    p_req.set_defaults(func=_cmd_request)

    p_measure = sub.add_parser(
        "measure",
        help="cycle measurement on a selectable machine model (in-order "
        "dsa or out-of-order ooo width/port sweep)",
    )
    p_measure.add_argument(
        "--machine", choices=["dsa", "ooo"], default="dsa",
        help="cycle model: the in-order DSA VLIW machine or the "
        "out-of-order pipeline (default dsa)",
    )
    p_measure.add_argument(
        "--suite", choices=["SPECfp", "CNN-KERNEL", "DSA-OP"],
        default="DSA-OP", help="workload suite (default DSA-OP)",
    )
    p_measure.add_argument(
        "--platform", choices=["rv1", "rv2", "dsa"], default="dsa",
        help="register-file platform (default dsa)",
    )
    p_measure.add_argument(
        "--banks", type=int, default=0,
        help="bank count within the platform (default 0 = the DSA 2x4 "
        "bank-subgroup file)",
    )
    p_measure.add_argument(
        "--method", action="append", choices=["non", "bcr", "bpc"],
        default=None, metavar="METHOD",
        help="allocation method(s) to compare (repeatable; default all)",
    )
    p_measure.add_argument(
        "--program", action="append", default=None, metavar="NAME",
        help="restrict to named suite program(s) (repeatable)",
    )
    p_measure.add_argument(
        "--issue-width", action="append", type=int, default=None,
        metavar="N",
        help="ooo sweep: instructions issued per cycle (repeatable; "
        "default 1 2 4)",
    )
    p_measure.add_argument(
        "--read-ports", action="append", type=int, default=None,
        metavar="N",
        help="ooo sweep: register-file read ports per bank (repeatable; "
        "default 1 2 4)",
    )
    p_measure.add_argument(
        "--rob", type=int, default=32,
        help="ooo: reorder-buffer entries (default 32)",
    )
    p_measure.add_argument(
        "--iq", type=int, default=16,
        help="ooo: issue-queue entries (default 16)",
    )
    p_measure.add_argument(
        "--no-rename", action="store_true",
        help="ooo: disable register renaming (scoreboard hazards; the "
        "degenerate parity configuration is --issue-width 1 "
        "--read-ports 1 --no-rename)",
    )
    p_measure.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the per-program conflict/alignment cycle dump as "
        "canonical JSON (bit-identical machines produce byte-identical "
        "dumps — CI compares them with cmp)",
    )
    p_measure.add_argument(
        "--record", default=None, metavar="DIR",
        help="ooo: write the sweep as an OOO_<timestamp>.json history "
        "record under DIR for `repro bench diff`",
    )
    p_measure.add_argument(
        "--label", default="", help="free-form label stored in the record"
    )
    p_measure.set_defaults(func=_cmd_measure)

    p_bench = sub.add_parser(
        "bench", help="benchmark history: record runs, diff them"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_record = bench_sub.add_parser(
        "record",
        help="run the canonical combination matrix and write a "
        "BENCH_<timestamp>.json history record",
    )
    p_record.add_argument(
        "--label", default="", help="free-form label stored in the record"
    )
    p_record.add_argument(
        "--out", default=None, metavar="DIR",
        help="history directory (default benchmarks/results/history/)",
    )
    p_record.set_defaults(func=_cmd_bench_record)
    p_diff = bench_sub.add_parser(
        "diff",
        help="compare two history records; exit 1 on regression, 2 when "
        "the records are not comparable",
    )
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument(
        "--threshold-pct", type=float, default=5.0,
        help="relative delta that counts as a regression (default 5%%)",
    )
    p_diff.add_argument(
        "--abs-floor", type=float, default=1.0,
        help="ignore absolute deltas below this floor (default 1)",
    )
    p_diff.add_argument(
        "--allow-config-mismatch", action="store_true",
        help="diff records with different config fingerprints anyway",
    )
    p_diff.set_defaults(func=_cmd_bench_diff)
    return parser


def _normalize_vreg(name: str) -> str:
    """Accept ``v5``, ``%v5``, or ``5`` for ``--explain``."""
    name = name.strip()
    if name.isdigit():
        name = f"v{name}"
    if not name.startswith("%"):
        name = f"%{name}"
    return name


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from . import obs

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv == ["--selfcheck"]:
        # Bare `repro --selfcheck`: run the check without a subcommand.
        return _cmd_selfcheck()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.selfcheck:
        code = _cmd_selfcheck()
        if code:
            return code
    # One recorder serves --trace and the four views; the views named
    # here also switch on their expensive producers.
    views = {
        view for view, flag in (
            ("metrics", args.metrics),
            ("explain", args.explain),
            ("profile", args.profile),
        ) if flag
    }
    if args.trace or args.pass_stats or views:
        obs.TRACER.enable(views=views)
    if args.faults:
        from .resilience import FAULTS, load_plan

        FAULTS.arm(load_plan(args.faults))
        # Exported so shard worker processes re-arm the same plan on
        # their side of the fork/spawn.
        os.environ["REPRO_FAULTS"] = args.faults
    try:
        from .experiments import PartialSuiteError

        try:
            return args.func(args)
        except PartialSuiteError as exc:
            # A worker crash no longer aborts the run silently: report
            # what completed and exit non-zero.
            print(exc.render(), file=sys.stderr)
            return 1
    finally:
        folds = args.pass_stats or args.metrics or args.explain or args.profile
        spans = obs.TRACER.spans if folds else []
        if args.pass_stats:
            print(obs.render_pass_stats(spans), file=sys.stderr)
        if args.trace:
            obs.TRACER.write_chrome_trace(args.trace)
            print(
                f"wrote {len(obs.TRACER)} spans to {args.trace} "
                "(open in chrome://tracing or https://ui.perfetto.dev)",
                file=sys.stderr,
            )
        if args.metrics:
            doc = obs.metrics_doc(spans)
            if args.metrics == "-":
                print(obs.render_metrics(doc), file=sys.stderr)
            else:
                with open(args.metrics, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1, sort_keys=True)
                print(f"wrote metrics to {args.metrics}", file=sys.stderr)
        if args.explain:
            print(
                obs.explain(spans, _normalize_vreg(args.explain)),
                file=sys.stderr,
            )
        if args.profile:
            profile = obs.Profile(spans)
            if args.profile == "-":
                print(profile.render(), file=sys.stderr)
            elif args.profile.endswith(".folded"):
                with open(args.profile, "w", encoding="utf-8") as fh:
                    fh.write(profile.folded_stacks() + "\n")
                print(
                    f"wrote {len(profile)} sites to {args.profile} "
                    "(collapsed stacks; feed to flamegraph.pl or "
                    "speedscope)",
                    file=sys.stderr,
                )
            else:
                with open(args.profile, "w", encoding="utf-8") as fh:
                    json.dump(profile.to_json(), fh, indent=1, sort_keys=True)
                print(
                    f"wrote {len(profile)} hotspot sites to {args.profile}",
                    file=sys.stderr,
                )


if __name__ == "__main__":
    sys.exit(main())
