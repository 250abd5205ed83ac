"""The in-process workloads: specfp-rv2 and dsa-op.

Both run every (function, method) pair of a suite through the allocator
and measure the result.  One unit of work is: parse the function's IR,
``run_pipeline``, measure the allocated code (static conflicts, the
cycle models, dynamic conflicts on specfp-rv2) and print it.  The
traced run decomposes the same unit into its public calls, pass by pass,
and must print the same bytes.
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from common import (
    ANALYSES,
    E2E_METRICS,
    LAYER_METRICS,
    LEDGER_TOLERANCE,
    PASSES,
    Outcome,
    median,
    own_peak_rss_mb,
    percentile,
    relabel,
)
from spans import SpanLog
from speed import WORK_ELASTICITY, SpeedProbe

from repro.alloc.verify import verify_allocation
from repro.banks.register_file import RegisterFile
from repro.ir.function import Function
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.passes import AnalysisManager, FunctionPassManager
from repro.prescount.pipeline import (
    METHODS,
    PipelineConfig,
    build_pipeline,
    run_pipeline,
)
from repro.sim.dsa import DsaMachine
from repro.sim.dynamic import estimate_dynamic_conflicts
from repro.sim.exec import ExecutionError, observably_equivalent
from repro.sim.machine import DSA_SUBGROUPED, platform_dsa, platform_rv2
from repro.sim.ooo import OooConfig, OooMachine
from repro.sim.static_stats import analyze_static
from repro.workloads.dsa_ops import DSA_KERNELS, idft_kernel
from repro.workloads.specfp import specfp_suite

#: The read-port-starved out-of-order corner (issue width 4, one port).
OOO_W4P1 = OooConfig(issue_width=4, read_ports=1)

#: Set-up is repeated until it has taken at least this long in all.
SETUP_MIN_S = 1.5

#: Units of the untimed warm-up: each method on the smallest inputs.
WARMUP_UNITS = 30

#: (function, method) pairs the equivalence check interprets ...
EQUIVALENCE_SAMPLES = 6
#: ... among functions expected to execute at most this many instructions
#: and units allocated within this many seconds.
MAX_INTERPRETED = 100_000
MAX_RERUN_S = 0.5

_UNTRACED = nullcontext()


@dataclass
class CompileWorkload:
    """One suite on one register file, with what to measure on it."""

    name: str
    #: Generates the suite; called several times to time set-up.
    generate: Callable[[], list[Function]]
    register_file: RegisterFile
    #: Expected dynamic conflicts (Platform-RV#2 style).
    dynamic: bool = False
    #: Cycles on the w4/p1 out-of-order machine.
    ooo: bool = False
    #: Quality key on which bpc <= bcr < non must hold.
    ordering: str = "static_conflicts"
    #: Permute each function's virtual-register numbers by the seed.
    relabel: bool = True


def specfp_rv2(scale: float = 0.04) -> CompileWorkload:
    return CompileWorkload(
        name="specfp-rv2",
        generate=lambda: specfp_suite(scale, 0).functions(),
        register_file=platform_rv2().file_for(2),
        dynamic=True,
    )


def dsa_op(idft_points: int = 16, kernels: tuple[str, ...] | None = None) -> CompileWorkload:
    names = kernels or tuple(DSA_KERNELS)

    def generate() -> list[Function]:
        return [
            idft_kernel(points=idft_points) if name == "idft" else DSA_KERNELS[name]()
            for name in names
        ]

    return CompileWorkload(
        name="dsa-op",
        generate=generate,
        register_file=platform_dsa().file_for(DSA_SUBGROUPED),
        ooo=True,
        ordering="dsa_cycles",
        # The paper's fixed kernels: relabeling moves the superlinear
        # sdg-split of the two largest by a third, far above the noise.
        relabel=False,
    )


@dataclass
class Unit:
    """Measured quality of one (function, method) result."""

    static_conflicts: int
    dynamic_conflicts: int
    spill_copy: int
    dsa_cycles: float
    ooo_cycles: float
    output: str
    allocated: Function | None = field(repr=False)
    am: AnalysisManager | None = field(repr=False)
    analyses: dict = field(default_factory=dict, repr=False)

    def quality(self) -> tuple:
        return (self.static_conflicts, self.dynamic_conflicts, self.spill_copy,
                self.dsa_cycles, self.ooo_cycles)


@dataclass
class Input:
    name: str
    text: str
    covered: bool


def _measure(work: CompileWorkload, inp: Input, allocated: Function,
             spill_copy: int, am, span) -> Unit:
    rf = work.register_file
    with span("sim.static"):
        static = analyze_static(allocated, rf, am=am)
    dynamic = 0
    if work.dynamic and inp.covered:
        with span("sim.dynamic"):
            dynamic = round(
                estimate_dynamic_conflicts(allocated, rf, am=am).conflicting_sites
            )
    with span("sim.dsa"):
        dsa_cycles = DsaMachine(rf).run(allocated, am=am).cycles
    ooo_cycles = 0.0
    if work.ooo:
        with span("sim.ooo"):
            ooo_cycles = OooMachine(rf, config=OOO_W4P1).run(allocated, am=am).cycles
    with span("ir.print"):
        output = print_function(allocated)
    return Unit(static.conflicts, dynamic, spill_copy, dsa_cycles, ooo_cycles,
                output, allocated, am)


def run_unit(work: CompileWorkload, inp: Input, method: str) -> Unit:
    """Allocate and measure one function the way a user calls the allocator."""
    function = parse_function(inp.text)
    pipe = run_pipeline(function, PipelineConfig(work.register_file, method))
    spill_copy = pipe.allocation.spill_instructions + pipe.copies_inserted
    return _measure(work, inp, pipe.function, spill_copy, pipe.analyses,
                    lambda _name: _UNTRACED)


def run_unit_traced(work: CompileWorkload, inp: Input, method: str,
                    log: SpanLog, invalidations: dict[str, int]) -> Unit:
    """:func:`run_unit` split into its public calls, each in a span.

    ``run_pipeline`` is clone + analysis manager + the pass list of
    ``build_pipeline``; here each pass runs in its own one-pass manager
    over the shared analysis manager and pipeline state.
    """
    with log.span("ir.parse"):
        function = parse_function(inp.text)
    with log.span("ir.clone"):
        work_fn = function.clone()
    with log.span("pipeline.setup"):
        am = AnalysisManager(work_fn)
        passes = build_pipeline(PipelineConfig(work.register_file, method)).passes
        state: dict = {}
    for pass_ in passes:
        before = am.total_invalidations()
        with log.span(f"pass.{pass_.name}"):
            FunctionPassManager([pass_]).run(work_fn, am=am, state=state)
        invalidations[pass_.name] = (
            invalidations.get(pass_.name, 0) + am.total_invalidations() - before
        )
    allocation = state["allocation"]
    sdg = state.get("sdg-split")
    spill_copy = (allocation.spill_instructions + allocation.copies_inserted
                  + (sdg.copies_inserted if sdg else 0))
    return _measure(work, inp, work_fn, spill_copy, am, log.span)


# ----------------------------------------------------------------------
def _prepare(work: CompileWorkload, seed: int, outcome: Outcome,
             speed: SpeedProbe) -> list[Input]:
    """Time suite generation (median of at least five, and of at least
    ``SETUP_MIN_S`` in all) in reference-speed CPU seconds; return the
    seeded inputs."""
    timings = []
    mark = speed.mark()
    while len(timings) < 5 or (sum(timings) < SETUP_MIN_S and len(timings) < 50):
        started = time.thread_time()
        functions = work.generate()
        texts = [print_function(fn) for fn in functions]
        timings.append(time.thread_time() - started)
    outcome.e2e["setup_s"] = speed.scale(median(timings), mark)
    outcome.report["setup_cpu_s"] = (median(timings), "s")
    rng = random.Random(seed)
    return [
        Input(fn.name, relabel(text, rng) if work.relabel else text,
              bool(fn.attrs.get("covered", True)))
        for fn, text in zip(functions, texts)
    ]


def _sweep(work, inputs, matrix, outcome, reference=None, log=None, invalidations=None):
    """Run every (input, method) unit once.

    Returns ``(latencies, cpu, units)`` keyed by (input index, method):
    wall seconds, CPU seconds of this thread and the measured unit.
    Each result is checked with ``verify_allocation`` outside the timed
    region, and against *reference* (a previous sweep's units) when given.
    """
    latencies: dict[tuple[int, str], float] = {}
    cpu: dict[tuple[int, str], float] = {}
    units: dict[tuple[int, str], Unit] = {}
    for index, method in matrix:
        inp = inputs[index]
        outcome.attempted += 1
        try:
            started, cpu_started = time.perf_counter(), time.thread_time()
            if log is None:
                unit = run_unit(work, inp, method)
            else:
                with log.span("unit", rid=f"{inp.name}:{method}"):
                    unit = run_unit_traced(work, inp, method, log, invalidations)
            cpu[(index, method)] = time.thread_time() - cpu_started
            latencies[(index, method)] = time.perf_counter() - started
        except Exception:
            outcome.fail(f"{inp.name}/{method}: {traceback.format_exc(limit=3)}")
            continue
        span = log.span("check.verify") if log is not None else _UNTRACED
        with span:
            findings = verify_allocation(unit.allocated, raise_on_failure=False)
        outcome.check(not findings, f"{inp.name}/{method}: verify_allocation: {findings[:2]}")
        if reference is not None and (index, method) in reference:
            ref = reference[(index, method)]
            outcome.check(
                unit.output == ref.output and unit.quality() == ref.quality(),
                f"{inp.name}/{method}: output differs from the reference run",
            )
        unit.analyses = unit.am.stats_snapshot()
        unit.allocated = unit.am = None  # keep memory flat across sweeps
        units[(index, method)] = unit
    return latencies, cpu, units


def _totals(units: dict, key: str) -> dict[str, float]:
    totals = {m: 0.0 for m in METHODS}
    for (_, method), unit in units.items():
        totals[method] += getattr(unit, key)
    return totals


def _check_equivalence(work, inputs, matrix, reference, latencies, seed, outcome) -> int:
    """``observably_equivalent`` on a seeded sample of allocated functions,
    re-allocated, each of which must also print as in the *reference*
    sweep.  Units that took longer than ``MAX_RERUN_S`` are not sampled."""
    rng = random.Random(seed)
    candidates = list(matrix)
    rng.shuffle(candidates)
    checked = 0
    for index, method in candidates:
        if checked >= EQUIVALENCE_SAMPLES:
            break
        if latencies.get((index, method), 0.0) > MAX_RERUN_S:
            continue
        inp = inputs[index]
        before = parse_function(inp.text)
        executed = estimate_dynamic_conflicts(before, work.register_file).executed_instructions
        if executed > MAX_INTERPRETED:
            continue
        pipe = run_pipeline(before, PipelineConfig(work.register_file, method))
        if (index, method) in reference:
            outcome.check(print_function(pipe.function) == reference[(index, method)].output,
                          f"{inp.name}/{method}: output differs from the timed sweep")
        try:
            same = observably_equivalent(before, pipe.function, seed=seed)
        except ExecutionError:
            continue  # execution budget exhausted: undecided, not wrong
        outcome.check(same, f"{inp.name}/{method}: not observably equivalent")
        checked += 1
    return checked


def run(work: CompileWorkload, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(work.name)
    with SpeedProbe(pin=True) as speed:
        inputs = _prepare(work, seed, outcome, speed)
        matrix = [(i, m) for i in range(len(inputs)) for m in METHODS]
        random.Random(seed).shuffle(matrix)

        # Untimed warm-up on the smallest inputs: first calls pay for lazy
        # imports and tables, not for allocation.
        smallest = sorted(range(len(inputs)), key=lambda i: len(inputs[i].text))
        warm = smallest[: max(1, min(WARMUP_UNITS // len(METHODS), len(inputs) // 4))]
        _sweep(work, inputs, [(i, m) for i in warm for m in METHODS], outcome)

        # Timed sweeps while --seconds last, at least one.  The first is
        # the reference that later sweeps, the sampled re-runs and the
        # traced sweep must reproduce byte for byte.  cpu_ms_per_op is the
        # CPU time of all of them at reference speed (speed.py).  For the
        # wall-clock report, each unit's latency is its best over the
        # sweeps and compile_s the fastest sweep.
        reference = None
        best: dict[tuple[int, str], float] = {}
        sweep_seconds: list[float] = []
        sweep_cpu: list[float] = []
        mark = speed.mark()
        started = time.perf_counter()
        while not sweep_seconds or time.perf_counter() - started < seconds:
            sweep_latencies, sweep_cpus, units = _sweep(work, inputs, matrix, outcome, reference)
            reference = reference or units
            for key, latency in sweep_latencies.items():
                best[key] = min(latency, best.get(key, latency))
            sweep_seconds.append(sum(sweep_latencies.values()))
            sweep_cpu.append(sum(sweep_cpus.values()))
        cpu_s = speed.scale(sum(sweep_cpu), mark, WORK_ELASTICITY)
        slowdown = speed.slowdown(mark)
    compile_s = min(sweep_seconds)
    latencies = list(best.values())

    quality = {
        key: _totals(reference, key)
        for key in ("static_conflicts", "dynamic_conflicts", "spill_copy",
                    "dsa_cycles", "ooo_cycles")
    }
    order = quality[work.ordering]
    outcome.check(
        order["bpc"] <= order["bcr"] < order["non"],
        f"paper ordering bpc <= bcr < non fails on {work.ordering}: {order}",
    )
    sampled = _check_equivalence(work, inputs, matrix, reference, best, seed, outcome)

    outcome.e2e.update({
        "cpu_ms_per_op": cpu_s / (len(matrix) * len(sweep_cpu)) * 1e3,
        "peak_rss_mb": own_peak_rss_mb(),
        "static_conflicts_bpc": quality["static_conflicts"]["bpc"],
        "spill_copy_instrs_bpc": quality["spill_copy"]["bpc"],
        "cycles_bpc": quality["dsa_cycles"]["bpc"],
    })
    assert set(outcome.e2e) == set(E2E_METRICS)
    report = outcome.report
    report["setup_s"] = (outcome.e2e["setup_s"], "s")
    report["cpu_ms_per_op"] = (outcome.e2e["cpu_ms_per_op"], "ms")
    report["compile_s"] = (compile_s, "s")
    report["compile_cpu_s"] = (min(sweep_cpu), "s")
    report["slowdown"] = (slowdown, "x")
    for pct in (50, 90, 99):
        report[f"fn_ms_p{pct}"] = (percentile(latencies, pct) * 1e3, "ms")
    for key, name in (("static_conflicts", "static_conflicts"),
                      ("spill_copy", "spill_copy_instrs")):
        for method in METHODS:
            report[f"{name}_{method}"] = (quality[key][method], "count")
    if work.dynamic:
        for method in METHODS:
            report[f"dynamic_conflicts_{method}"] = (quality["dynamic_conflicts"][method], "count")
    for method in METHODS:
        report[f"dsa_cycles_{method}"] = (quality["dsa_cycles"][method], "cycles")
    if work.ooo:
        for method in METHODS:
            report[f"ooo_cycles_{method}"] = (quality["ooo_cycles"][method], "cycles")
    report["peak_rss_mb"] = (outcome.e2e["peak_rss_mb"], "MB")
    outcome.notes.append(
        f"{len(inputs)} functions x {len(METHODS)} methods, {len(sweep_seconds)} timed "
        f"sweeps ({', '.join(f'{s:.3f}' for s in sweep_seconds)} s wall, "
        f"{', '.join(f'{s:.3f}' for s in sweep_cpu)} s CPU, host {slowdown:.2f}x the "
        f"reference), latency = each unit's best; "
        f"{sampled} sampled functions interpreted for equivalence"
    )
    if trace:
        # Under the same probe and pinning as the untraced sweeps.
        with SpeedProbe(pin=True):
            _traced(work, inputs, matrix, reference, median(sweep_seconds), outcome)
    return outcome


def _traced(work, inputs, matrix, reference, untraced_s, outcome) -> None:
    """One traced sweep: the per-layer ledger and its reconciliation."""
    log = SpanLog()
    invalidations: dict[str, int] = {}
    started = time.perf_counter()
    with log.span("sweep", rid="sweep"):
        latencies, _, units = _sweep(work, inputs, matrix, outcome, reference, log, invalidations)
    wall = time.perf_counter() - started
    self_times = log.self_times()
    unattributed = self_times.get("sweep", 0.0) + self_times.get("unit", 0.0)
    total = sum(self_times.values())
    outcome.check(abs(total - wall) <= 1e-3 * wall,
                  f"span self times sum to {total:.4f}s, traced wall is {wall:.4f}s")
    outcome.check(unattributed <= LEDGER_TOLERANCE * wall,
                  f"ledger leaves {unattributed / wall:.1%} of the traced wall unattributed")
    outcome.ledger = sorted(self_times.items(), key=lambda kv: -kv[1])
    outcome.ledger_wall_s = wall

    layers = {name: 0.0 for name in LAYER_METRICS}
    for name in PASSES:
        layers[f"pass.{name}.self_s"] = self_times.get(f"pass.{name}", 0.0)
        layers[f"pass.{name}.invalidations"] = invalidations.get(name, 0)
    counters: dict[str, list[int]] = {a: [0, 0] for a in ANALYSES}
    for unit in units.values():
        for name, c in unit.analyses.items():
            counters.setdefault(name, [0, 0])
            counters[name][0] += c["hits"]
            counters[name][1] += c["hits"] + c["misses"]
    for name in ANALYSES:
        hits, requests = counters[name]
        layers[f"analysis.{name}.hit_ratio"] = hits / requests if requests else 0.0
        layers[f"analysis.{name}.requests"] = requests
    for layer in ("ir.parse", "ir.print", "ir.clone", "sim.static", "sim.dynamic",
                  "sim.dsa", "sim.ooo"):
        layers[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    traced_s = sum(latencies.values())
    layers["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    layers["ledger.unattributed_pct"] = unattributed / wall * 100.0
    outcome.layers = layers
    outcome.notes.append(
        f"traced sweep {traced_s:.3f}s vs untraced {untraced_s:.3f}s "
        f"(tracing overhead {traced_s - untraced_s:+.3f}s)"
    )
    outcome.spans = log
