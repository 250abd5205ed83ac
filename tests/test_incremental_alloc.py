"""Incremental reallocation re-runs only the changed functions.

The proof is observable twice over: the
:class:`~repro.service.incremental.IncrementalAllocator` counters report
the reuse/execute split, and the recorder's pass spans (folded by
:func:`repro.obs.pass_table`) show the pipeline passes ran exactly once
per *changed* function — unchanged fragments never touch
the pass manager, and within an executed function the shared analysis
cache keeps hitting (preserved analyses are reused, not recomputed).
"""

from __future__ import annotations

import pytest

from repro.ir import IRBuilder, print_module
from repro.ir.function import Module
from repro.obs import TRACER, pass_table
from repro.service import (
    AllocationService,
    IncrementalAllocator,
    ServiceConfig,
)

SPEC = {"registers": 16, "banks": 2}

#: Passes the bpc pipeline runs per executed function.
BPC_PASSES = ("coalescing", "scheduling", "bank-assignment", "allocation")


@pytest.fixture(autouse=True)
def _instrumented():
    TRACER.reset()
    TRACER.enable()
    yield
    TRACER.enable(False)
    TRACER.reset()


def _kernel(name: str, n: int, trip_count: int = 8):
    b = IRBuilder(name)
    xs = [b.const(float(i + 1)) for i in range(n)]
    acc = b.const(0.0)
    with b.loop(trip_count=trip_count):
        for i in range(len(xs) - 1):
            product = b.arith("fmul", xs[i], xs[i + 1])
            b.arith_into(acc, "fadd", acc, product)
    b.ret(acc)
    return b.finish()


def _module(trips: list[int]) -> str:
    module = Module("inc")
    for i, trip in enumerate(trips):
        module.add(_kernel(f"k{i}", 3 + i % 2, trip_count=trip))
    return print_module(module)


def _pass_runs() -> dict[str, int]:
    passes, _ = pass_table(TRACER.spans)
    return {name: row["runs"] for name, row in passes.items()}


class TestPassRunCounters:
    def test_only_changed_functions_reexecute(self):
        allocator = IncrementalAllocator()
        allocator.allocate(_module([8, 8, 8, 8]), SPEC, "bpc")
        first = _pass_runs()
        for name in BPC_PASSES:
            assert first[name] == 4, f"{name} should run once per function"

        # One function changes: every pipeline pass runs exactly once
        # more — the three preserved fragments never reach a pass.
        allocator.allocate(_module([24, 8, 8, 8]), SPEC, "bpc")
        second = _pass_runs()
        for name in BPC_PASSES:
            assert second[name] == first[name] + 1, (
                f"{name} re-ran for an unchanged function"
            )
        assert allocator.counters["functions_executed"] == 5
        assert allocator.counters["functions_reused"] == 3

    def test_unchanged_rebuild_runs_no_passes(self):
        allocator = IncrementalAllocator()
        text = _module([8, 8, 8])
        allocator.allocate(text, SPEC, "bpc")
        before = _pass_runs()
        allocator.allocate(text, SPEC, "bpc")
        assert _pass_runs() == before
        assert allocator.counters["functions_reused"] == 3

    def test_preserved_analyses_reused_inside_executed_function(self):
        """The executed function's passes share one analysis cache: the
        scheduler's post-reorder intervals are cache *hits* for the bank
        assigner and allocator, not recomputations."""
        IncrementalAllocator().allocate(_module([8, 8]), SPEC, "bpc")
        intervals = pass_table(TRACER.spans)[1].get("LiveIntervals")
        assert intervals is not None
        assert intervals["hits"] >= 2, (
            "live intervals were recomputed instead of reused"
        )


class TestServiceIncrementalCounters:
    def test_service_reports_reuse_split(self):
        service = AllocationService(ServiceConfig())
        job = service.submit(
            {"ir": _module([8, 8, 8]), "file": SPEC, "method": "bpc"}
        )
        service.process_once()
        assert job.status == "done", job.error
        job2 = service.submit(
            {"ir": _module([8, 8, 24]), "file": SPEC, "method": "bpc"}
        )
        service.process_once()
        assert job2.status == "done", job2.error
        assert service.incremental == {
            "modules": 2,
            "functions_total": 6,
            "functions_reused": 2,
            "functions_executed": 4,
        }
        assert service.stats()["incremental"]["functions_reused"] == 2

    def test_function_requests_warm_the_module_path(self):
        """A plain function request caches a fragment the module path
        reuses — function artifacts *are* fragments."""
        from repro.ir import print_function

        service = AllocationService(ServiceConfig())
        fn_job = service.submit(
            {
                "ir": print_function(_kernel("k0", 3, trip_count=8)),
                "file": SPEC,
                "method": "bpc",
            }
        )
        service.process_once()
        assert fn_job.status == "done", fn_job.error
        module_job = service.submit(
            {"ir": _module([8, 8]), "file": SPEC, "method": "bpc"}
        )
        service.process_once()
        assert module_job.status == "done", module_job.error
        assert service.incremental["functions_reused"] == 1
        assert service.incremental["functions_executed"] == 1
