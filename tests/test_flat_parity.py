"""Flat-core output guarantees beyond the golden digests.

``repro --selfcheck`` must pass on the canned kernel and hard-fail on a
poisoned build; an incremental module rebuild must equal the
from-scratch build bit for bit whether 1, K, or all N functions
changed; and the observability layers must keep rendering original
register names (never interned rids).  The workload × method × file
output matrix itself is pinned by ``test_golden_digests.py``.
"""

from __future__ import annotations

import re

import pytest

from repro import obs
from repro.banks import BankedRegisterFile
from repro.ir import IRBuilder, print_function, print_module
from repro.ir.function import Module
from repro.prescount import PipelineConfig, run_pipeline
from repro.selfcheck import SelfCheckError, run_selfcheck
from repro.service import (
    AllocationCache,
    artifact_bytes,
    build_module_artifact,
)


class TestWorkloadParity:
    """The canned kernel still allocates to its recorded digests."""

    def test_selfcheck_passes(self):
        summary = run_selfcheck()
        assert summary["ok"]

    def test_selfcheck_detects_divergence(self, monkeypatch):
        """A poisoned build must hard-fail, not slip through."""
        import repro.selfcheck as sc

        real = sc._artifact

        def poisoned(ir, method):
            return real(ir, method) + b" "

        monkeypatch.setattr(sc, "_artifact", poisoned)
        with pytest.raises(SelfCheckError):
            run_selfcheck(methods=("non",))


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
    module = Module("parity")
    for i, trip in enumerate(trips):
        module.add(_kernel(f"k{i}", 3 + i % 3, trip_count=trip))
    return print_module(module)


class TestIncrementalEqualsScratch:
    """incremental rebuild == from-scratch build, bit for bit."""

    SPEC = {"registers": 16, "banks": 2}

    @pytest.mark.parametrize("changed", [1, 2, 5])
    def test_rebuild_matches_scratch(self, changed):
        base = [8, 8, 8, 8, 8]
        store, counters = AllocationCache(None), {}
        first = artifact_bytes(
            build_module_artifact(
                _module(base), self.SPEC, "bpc",
                store=store, counters=counters,
            )
        )
        scratch_first = artifact_bytes(
            build_module_artifact(_module(base), self.SPEC, "bpc")
        )
        assert first == scratch_first

        after = list(base)
        for i in range(changed):
            after[i] += 8  # a different trip count changes the function
        rebuilt = artifact_bytes(
            build_module_artifact(
                _module(after), self.SPEC, "bpc",
                store=store, counters=counters,
            )
        )
        scratch = artifact_bytes(
            build_module_artifact(_module(after), self.SPEC, "bpc")
        )
        assert rebuilt == scratch
        assert counters["modules"] == 2
        assert counters["functions_total"] == 10
        assert counters["functions_executed"] == 5 + changed
        assert counters["functions_reused"] == 5 - changed


class TestNamesSurviveFlatPath:
    """Observability output renders %vN / $fN names, never interned rids."""

    @pytest.fixture(autouse=True)
    def _restore_obs(self):
        yield
        obs.TRACER.enable(False, views=())
        obs.TRACER.reset()

    def test_audit_decision_paths_use_vreg_names(self):
        obs.TRACER.enable(views=("explain",))
        obs.TRACER.reset()
        fn = _kernel("audit", 5, trip_count=16)
        run_pipeline(fn, PipelineConfig(BankedRegisterFile(16, 2), "bpc"))
        records = obs.decisions(obs.TRACER.spans)
        assert records, "bpc pipeline recorded no vreg decisions"
        for record in records:
            assert re.fullmatch(r"%v\d+", record["vreg"]), (
                f"audit record leaked a non-name register id: "
                f"{record['vreg']!r}"
            )

    def test_profile_listing_uses_register_names(self):
        from repro.sim import estimate_dynamic_conflicts

        obs.TRACER.enable(views=("profile",))
        obs.TRACER.reset()
        register_file = BankedRegisterFile(8, 2)
        fn = _kernel("hotspot", 6, trip_count=16)
        result = run_pipeline(fn, PipelineConfig(register_file, "non"))
        estimate_dynamic_conflicts(result.function, register_file)
        listing = obs.Profile(obs.TRACER.spans).annotate(result.function)
        # The annotated listing is real printed IR: physical registers
        # appear as $f<N>; a leaked interned id would print as a bare
        # integer operand, which the grammar has no place for.
        assert "$f" in listing
        assert print_function(result.function).splitlines()[0] in listing
