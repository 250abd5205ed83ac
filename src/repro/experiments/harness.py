"""Experiment harness: run suites through the pipeline and collect the
metrics every table and figure is built from.

The unit of measurement is a *program* (a suite executable).  For each
(program, register file, method) combination the harness runs the Fig. 4
pipeline on every function, measures static conflicts (always), expected
dynamic conflicts (Platform-RV#2), and DSA cycles (Platform-DSA), and
aggregates.

:class:`ExperimentContext` memoizes suite generation and per-combination
results so the table/figure modules can share runs (Table II and Table
III, for example, consume the same RV#1 sweeps).

With ``jobs > 1`` (CLI ``--jobs`` / env ``REPRO_JOBS``), :func:`run_suite`
fans the per-program work across a process pool.  Programs are
independent — each worker runs whole pipelines on its own function clones
— and ``pool.map`` preserves suite order, so the merged result list is
identical to a serial run.

Observability (:mod:`repro.obs`) crosses the pool as one span list per
program: each worker records with the parent's switches, resets the
recorder around every task, ships the program's spans back, and the
parent folds them in ``pool.map`` (= suite) order — so the merged Chrome
trace has one deterministic lane (``proc``) per program, its span tree is
structurally identical to a serial run's, and every view over it
(pass statistics, metrics, decisions, hotspot profile) equals the serial
run's.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..banks.register_file import RegisterFile
from ..ir.types import FP, RegClass
from ..obs import TRACER
from ..prescount.pipeline import PipelineConfig, run_pipeline
from ..sim.dsa import DsaMachine
from ..sim.dynamic import estimate_dynamic_conflicts
from ..sim.machine import platform_dsa, platform_rv1, platform_rv2
from ..sim.ooo import OooConfig, OooMachine, normalize_machine_spec
from ..sim.static_stats import analyze_static, count_conflict_relevant
from ..workloads.cnn import cnn_suite
from ..workloads.dsa_ops import dsa_suite
from ..workloads.specfp import Suite, SuiteProgram, specfp_suite


@dataclass
class ProgramResult:
    """Aggregated metrics of one program under one (file, method) pair."""

    program: str
    category: str
    suite: str
    method: str
    file_key: str
    conflict_relevant: int = 0
    static_conflicts: int = 0
    bank_conflicts: int = 0
    subgroup_violations: int = 0
    dynamic_conflicts: int | None = None
    dynamic_instances: int | None = None
    spills: int = 0
    spill_instructions: int = 0
    copies_inserted: int = 0
    copies_removed: int = 0
    cycles: float | None = None
    conflict_cycles: float | None = None
    alignment_cycles: float | None = None
    machine: str = "dsa"
    functions: int = 0

    @property
    def is_conflict_relevant(self) -> bool:
        return self.conflict_relevant > 0

    @property
    def is_conflict_free(self) -> bool:
        return self.is_conflict_relevant and self.static_conflicts == 0


def build_machine(
    register_file: RegisterFile,
    regclass: RegClass = FP,
    machine_spec: dict | str | None = None,
) -> DsaMachine | OooMachine:
    """Instantiate the cycle model a (normalized) machine spec names.

    ``None``/``"dsa"`` builds the in-order :class:`DsaMachine`; an
    ``"ooo"`` spec builds an :class:`OooMachine` with the spec's pipeline
    parameters.  Both expose ``run(function, am=am)`` and a report with
    ``cycles`` / ``conflict_penalty_cycles`` / ``alignment_penalty_cycles``.
    """
    spec = normalize_machine_spec(machine_spec)
    if spec["model"] == "dsa":
        return DsaMachine(register_file, regclass)
    return OooMachine(register_file, regclass, config=OooConfig.from_dict(spec))


def run_program(
    program: SuiteProgram,
    register_file: RegisterFile,
    method: str,
    *,
    suite_name: str = "",
    file_key: str = "",
    measure_dynamic: bool = False,
    measure_cycles: bool = False,
    regclass: RegClass = FP,
    config_overrides: dict | None = None,
    machine_spec: dict | str | None = None,
) -> ProgramResult:
    """Run one program through the pipeline and measure it."""
    spec = normalize_machine_spec(machine_spec)
    result = ProgramResult(
        program=program.name,
        category=program.category,
        suite=suite_name,
        method=method,
        file_key=file_key,
        machine=spec["model"],
    )
    machine = (
        build_machine(register_file, regclass, spec) if measure_cycles else None
    )
    with TRACER.span(
        program.name,
        category="program",
        suite=suite_name,
        method=method,
        file=file_key,
    ):
        for function in program.functions():
            with TRACER.span(function.name, category="function"):
                overrides = dict(config_overrides or {})
                config = PipelineConfig(register_file, method, regclass, **overrides)
                pipe = run_pipeline(function, config)
                allocated = pipe.function
                # The pipeline's analysis cache is still valid for the
                # allocated function (allocation preserves the CFG-level
                # analyses), so the measurement passes keep hitting it.
                am = pipe.analyses
                static = analyze_static(allocated, register_file, regclass, am=am)
                result.functions += 1
                result.conflict_relevant += count_conflict_relevant(
                    function, regclass
                )
                result.static_conflicts += static.conflicts
                result.bank_conflicts += static.bank_conflicts
                result.subgroup_violations += static.subgroup_violations
                result.spills += pipe.spill_count
                result.spill_instructions += pipe.allocation.spill_instructions
                result.copies_inserted += pipe.copies_inserted
                result.copies_removed += pipe.allocation.copies_removed
                if measure_dynamic:
                    # The paper's QEMU methodology counts *executed conflict
                    # sites* (Table IV's dynamic counts sit below the static
                    # ones), so the harness reports the site estimate; raw
                    # per-execution instance counts stay available in
                    # `dynamic_instances`.  Functions the test input never
                    # reaches (coverage metadata from the suite generator)
                    # contribute nothing dynamically.
                    result.dynamic_conflicts = result.dynamic_conflicts or 0
                    result.dynamic_instances = result.dynamic_instances or 0
                    if function.attrs.get("covered", True):
                        dynamic = estimate_dynamic_conflicts(
                            allocated, register_file, regclass, am=am
                        )
                        result.dynamic_conflicts += round(dynamic.conflicting_sites)
                        result.dynamic_instances += (
                            dynamic.dynamic_conflicts
                            + dynamic.dynamic_subgroup_violations
                        )
                if machine is not None:
                    report = machine.run(allocated, am=am)
                    result.cycles = (result.cycles or 0.0) + report.cycles
                    result.conflict_cycles = (
                        (result.conflict_cycles or 0.0)
                        + report.conflict_penalty_cycles
                    )
                    result.alignment_cycles = (
                        (result.alignment_cycles or 0.0)
                        + report.alignment_penalty_cycles
                    )
    return result


@dataclass
class TaskFailure:
    """One payload that kept failing after every retry."""

    index: int
    label: str
    error: str
    attempts: int

    def __str__(self) -> str:
        return f"{self.label or f'payload {self.index}'}: {self.error}"


class PartialSuiteError(RuntimeError):
    """A suite run lost programs to worker failures.

    Carries the *partial* results (suite order preserved, failed
    programs absent) plus one :class:`TaskFailure` per lost program, so
    callers can report what did complete and exit non-zero instead of
    dying on a bare ``BrokenProcessPool``.
    """

    def __init__(self, results: list, failures: list[TaskFailure]):
        self.results = results
        self.failures = failures
        super().__init__(
            f"{len(failures)} of {len(results) + len(failures)} programs "
            "failed after retries"
        )

    def render(self) -> str:
        lines = [
            f"suite run incomplete: {len(self.failures)} program(s) failed "
            f"after retries, {len(self.results)} completed"
        ]
        for failure in self.failures:
            first = failure.error.strip().splitlines()
            lines.append(
                f"  {failure.label or f'payload {failure.index}'} "
                f"({failure.attempts} attempts): {first[-1] if first else '?'}"
            )
        return "\n".join(lines)


def run_tasks(
    fn,
    payloads: list,
    *,
    jobs: int,
    retries: int = 1,
    backoff_s: float = 0.0,
    labels: list[str] | None = None,
) -> tuple[list, list[TaskFailure]]:
    """Fan *payloads* over a process pool, surviving worker crashes.

    ``pool.map`` turns one crashed worker (segfault, ``os._exit``, OOM
    kill) into a :class:`BrokenProcessPool` that aborts everything.
    This helper instead collects each payload's outcome individually:
    a payload that raises — or whose pool dies under it — is retried
    (``retries`` times, on a fresh pool, after an exponential
    ``backoff_s * 2**(attempt-1)`` seconds, capped at 2 s), and
    innocent victims of a neighbour's crash are retried with it.
    Returns ``(results, failures)`` where ``results`` is
    payload-ordered with ``None`` at failed indexes.

    The experiment harness (:func:`run_suite`) and the allocation
    service's batch executor (:mod:`repro.service.queue`) both run on
    this.
    """
    results: list = [None] * len(payloads)
    errors: list[str | None] = [None] * len(payloads)
    attempts = [0] * len(payloads)
    pending = list(range(len(payloads)))

    def _format(exc: BaseException) -> str:
        return "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()

    for attempt in range(retries + 1):
        if not pending:
            break
        if attempt:
            TRACER.fact("harness.retry", **{"harness.task_retries": len(pending)})
            if backoff_s:
                time.sleep(min(backoff_s * (2 ** (attempt - 1)), 2.0))
        still_failing: list[int] = []
        if attempt == 0:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))
            ) as pool:
                futures = {}
                for i in pending:
                    try:
                        futures[i] = pool.submit(fn, payloads[i])
                    except Exception as exc:  # pool broken at submit
                        attempts[i] += 1
                        errors[i] = _format(exc)
                        still_failing.append(i)
                for i, future in futures.items():
                    attempts[i] += 1
                    try:
                        results[i] = future.result()
                        errors[i] = None
                    except Exception as exc:
                        errors[i] = _format(exc)
                        still_failing.append(i)
        else:
            # Retry rounds isolate each payload in its own single-worker
            # pool: a payload that keeps crashing its process can then
            # only take itself down, never an innocent neighbour that
            # shared the first round's pool with it.
            for i in pending:
                attempts[i] += 1
                try:
                    with ProcessPoolExecutor(max_workers=1) as pool:
                        results[i] = pool.submit(fn, payloads[i]).result()
                    errors[i] = None
                except Exception as exc:
                    errors[i] = _format(exc)
                    still_failing.append(i)
        pending = sorted(still_failing)
    failures = [
        TaskFailure(
            index=i,
            label=labels[i] if labels else "",
            error=errors[i] or "unknown error",
            attempts=attempts[i],
        )
        for i in pending
    ]
    return results, failures


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a job count: ``None`` falls back to the ``REPRO_JOBS``
    environment variable, then to serial execution."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    return max(1, int(jobs))


def _run_program_task(payload: tuple) -> tuple[ProgramResult, list | None]:
    """Process-pool worker: one program, plus the spans it recorded.

    *views* is the parent's ``TRACER.views`` when it records (``None``
    when it does not), so the worker runs the same producers.  The
    recorder is reset around the task because worker processes are
    reused (and, under fork, inherit the parent's buffer): the span list
    must cover exactly one program.
    """
    program, register_file, method, kwargs, views = payload
    TRACER.enable(views is not None, views=views or ())
    TRACER.reset()
    result = run_program(program, register_file, method, **kwargs)
    spans = TRACER.spans if views is not None else None
    TRACER.reset()
    return result, spans


def run_suite(
    suite: Suite,
    register_file: RegisterFile,
    method: str,
    *,
    file_key: str = "",
    measure_dynamic: bool = False,
    measure_cycles: bool = False,
    config_overrides: dict | None = None,
    machine_spec: dict | str | None = None,
    jobs: int | None = 1,
) -> list[ProgramResult]:
    """Run every program of *suite* and return one result per program.

    ``jobs > 1`` distributes programs over a process pool; the result
    list is ordered and valued identically to a serial run.  A program
    whose worker raises — or crashes the worker process outright — is
    retried once on a fresh pool; if it still fails, the completed
    programs are reported through :class:`PartialSuiteError` instead of
    the whole suite dying on ``BrokenProcessPool``.
    """
    kwargs = dict(
        suite_name=suite.name,
        file_key=file_key,
        measure_dynamic=measure_dynamic,
        measure_cycles=measure_cycles,
        config_overrides=config_overrides,
        machine_spec=normalize_machine_spec(machine_spec),
    )
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(suite.programs) <= 1:
        return [
            run_program(program, register_file, method, **kwargs)
            for program in suite.programs
        ]
    views = TRACER.views if TRACER.enabled else None
    payloads = [
        (program, register_file, method, kwargs, views)
        for program in suite.programs
    ]
    # Outcomes are collected per payload (suite order), so each
    # program's spans fold into the recorder as its own lane in suite
    # order, whichever worker finished first.
    outcomes, failures = run_tasks(
        _run_program_task,
        payloads,
        jobs=jobs,
        retries=1,
        labels=[program.name for program in suite.programs],
    )
    results: list[ProgramResult] = []
    for outcome in outcomes:
        if outcome is None:
            continue
        result, spans = outcome
        TRACER.record_raw(spans, proc=result.program)
        results.append(result)
    if failures:
        raise PartialSuiteError(results, failures)
    return results


@dataclass
class ExperimentContext:
    """Shared, memoized state for regenerating the paper's evaluation.

    Attributes:
        spec_scale: SPECfp suite scale (1.0 = full Table I calibration;
            the default keeps the whole evaluation laptop-sized).
        cnn_scale: CNN-KERNEL suite scale.
        idft_points: IDFT size for the DSA suite.
        seed: Master seed for all generators.
        jobs: Worker processes per suite run (``None`` = honor
            ``REPRO_JOBS``, else serial).  Results are independent of the
            job count; only wall time changes.
    """

    spec_scale: float = 0.05
    cnn_scale: float = 0.5
    idft_points: int = 16
    seed: int = 0
    jobs: int | None = None
    _suites: dict = field(default_factory=dict, repr=False)
    _results: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Suites
    # ------------------------------------------------------------------
    def suite(self, name: str) -> Suite:
        if name not in self._suites:
            if name == "SPECfp":
                self._suites[name] = specfp_suite(self.spec_scale, self.seed)
            elif name == "CNN-KERNEL":
                self._suites[name] = cnn_suite(self.cnn_scale, self.seed)
            elif name == "DSA-OP":
                self._suites[name] = dsa_suite(self.seed, self.idft_points)
            else:
                raise KeyError(f"unknown suite {name!r}")
        return self._suites[name]

    # ------------------------------------------------------------------
    # Register files
    # ------------------------------------------------------------------
    def register_file(self, platform: str, banks: int) -> RegisterFile:
        if platform == "rv1":
            return platform_rv1().file_for(banks)
        if platform == "rv2":
            return platform_rv2().file_for(banks)
        if platform == "dsa":
            return platform_dsa().file_for(banks)
        raise KeyError(f"unknown platform {platform!r}")

    # ------------------------------------------------------------------
    # Memoized runs
    # ------------------------------------------------------------------
    def results(
        self,
        suite_name: str,
        platform: str,
        banks: int,
        method: str,
        *,
        measure_dynamic: bool | None = None,
        measure_cycles: bool | None = None,
        machine_spec: dict | str | None = None,
    ) -> list[ProgramResult]:
        """Per-program results for one combination (cached)."""
        if measure_dynamic is None:
            measure_dynamic = platform == "rv2"
        if measure_cycles is None:
            measure_cycles = platform == "dsa"
        spec = normalize_machine_spec(machine_spec)
        # Cached artifacts never alias across machine models: the memo
        # key carries the full canonical spec (None only for the
        # default in-order machine, matching pre-OoO keys).
        machine_token = (
            None if spec["model"] == "dsa" else tuple(sorted(spec.items()))
        )
        key = (
            suite_name, platform, banks, method, measure_dynamic,
            measure_cycles, machine_token,
        )
        if key not in self._results:
            register_file = self.register_file(platform, banks)
            file_key = f"{platform}:{banks}"
            self._results[key] = run_suite(
                self.suite(suite_name),
                register_file,
                method,
                file_key=file_key,
                measure_dynamic=measure_dynamic,
                measure_cycles=measure_cycles,
                machine_spec=spec,
                jobs=self.jobs,
            )
        return self._results[key]

    def combined_results(
        self, platform: str, banks: int, method: str, **kwargs
    ) -> list[ProgramResult]:
        """SPECfp + CNN-KERNEL combined (Tables II and IV aggregate both)."""
        return self.results("SPECfp", platform, banks, method, **kwargs) + self.results(
            "CNN-KERNEL", platform, banks, method, **kwargs
        )

    def function_static(
        self, suite_name: str, platform: str, banks: int, method: str = "non"
    ) -> list[tuple[str, int, int]]:
        """Per-*function* (name, conflict-relevant count, static conflicts)
        triples — Fig. 1 categorizes individual tests, not whole programs."""
        key = ("function_static", suite_name, platform, banks, method)
        if key not in self._results:
            register_file = self.register_file(platform, banks)
            triples: list[tuple[str, int, int]] = []
            for function in self.suite(suite_name).functions():
                config = PipelineConfig(register_file, method)
                pipe = run_pipeline(function, config)
                static = analyze_static(
                    pipe.function, register_file, am=pipe.analyses
                )
                triples.append(
                    (
                        function.name,
                        count_conflict_relevant(function),
                        static.conflicts,
                    )
                )
            self._results[key] = triples
        return self._results[key]
