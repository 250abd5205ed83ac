"""Out-of-order machine model: hazards, backpressure, parity, determinism.

The load-bearing guarantee is the **degenerate parity proof**: at issue
width 1, a single read port per bank, and rename off, the
:class:`~repro.sim.ooo.OooMachine` must reproduce the in-order
:class:`~repro.sim.dsa.DsaMachine` bank-conflict and alignment cycle
counts *bit-identically* across the full paper workload set — every
other point of the width x ports sweep is only meaningful relative to
that anchor.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.experiments import ExperimentContext, build_machine
from repro.ir import parse_function
from repro.ir.types import PhysicalRegister
from repro.sim import DsaMachine, OooConfig, OooMachine, normalize_machine_spec
from repro.sim.ooo import (
    IssueQueue,
    ReadPortArbiter,
    RegisterRenamer,
    ReorderBuffer,
)

P = PhysicalRegister


@pytest.fixture(autouse=True)
def _restore_recorder():
    yield
    obs.TRACER.enable(False, views=())
    obs.TRACER.reset()


def dsa_file():
    return BankSubgroupRegisterFile(16, 2, 4)


def flat_file():
    return BankedRegisterFile(16, 2)


def machine(config=None, register_file=None):
    return OooMachine(
        register_file if register_file is not None else flat_file(),
        config=config or OooConfig(),
    )


#: The paper workload set x methods the degenerate parity proof covers,
#: at the CLI-default scales (fast enough for tier-1, identical to what
#: the ``ooo-smoke`` CI job byte-compares via ``repro measure --out``).
PARITY_SUITES = ("SPECfp", "CNN-KERNEL", "DSA-OP")
PARITY_METHODS = ("non", "bcr", "bpc")


def small_ctx(jobs=None):
    return ExperimentContext(
        spec_scale=0.02, cnn_scale=0.2, idft_points=8, seed=0, jobs=jobs
    )


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------
class TestComponents:
    def test_renamer_allocates_and_releases(self):
        r = RegisterRenamer(2)
        tag0, displaced0 = r.rename_def(P(0))
        assert displaced0 is None
        tag1, displaced1 = r.rename_def(P(0))
        assert displaced1 == tag0 and tag1 != tag0
        assert not r.can_allocate(1)
        r.release(tag0)
        assert r.can_allocate(1)
        r.release(None)  # no-op

    def test_renamer_exhaustion_raises_without_check(self):
        r = RegisterRenamer(1)
        r.rename_def(P(0))
        with pytest.raises(RuntimeError):
            r.rename_def(P(1))

    def test_issue_queue_selects_oldest_ready_first(self):
        iq = IssueQueue(4)
        for i in (3, 1, 2):
            iq.insert(i)
        assert iq.select(2, lambda i: i != 1) == [3, 2]
        assert len(iq) == 1 and not iq.select(2, lambda i: False)

    def test_rob_retires_in_order_up_to_width(self):
        rob = ReorderBuffer(4)
        for i in range(3):
            rob.push(i)
        # Head not complete: nothing retires even though 1 and 2 are.
        assert rob.retire(4, lambda i: i != 0) == []
        assert rob.retire(2, lambda i: True) == [0, 1]
        assert rob.retire(2, lambda i: True) == [2]


# ----------------------------------------------------------------------
# Read-port arbitration
# ----------------------------------------------------------------------
class TestArbitration:
    def test_extra_cycles_sum_over_banks(self):
        # Bank 0: fp0, fp2, fp8 (3 reads); bank 1: fp1 (1 read).
        arb = ReadPortArbiter(flat_file(), ports_per_bank=1)
        result = arb.arbitrate([(0, (P(0), P(1))), (1, (P(2), P(8)))])
        assert result.extra_cycles == 2  # ceil(3/1)-1 for bank 0 only

    def test_more_ports_absorb_conflicts(self):
        group = [(0, (P(0), P(2))), (1, (P(4), P(6)))]
        assert ReadPortArbiter(flat_file(), 1).arbitrate(group).extra_cycles == 3
        assert ReadPortArbiter(flat_file(), 2).arbitrate(group).extra_cycles == 1
        assert ReadPortArbiter(flat_file(), 4).arbitrate(group).extra_cycles == 0

    def test_oldest_first_read_never_pays(self):
        # All four reads hit bank 0; the oldest instruction's first read
        # rides the free wave, and each recirculation wave is charged to
        # the owner of its first read.
        arb = ReadPortArbiter(flat_file(), ports_per_bank=1)
        result = arb.arbitrate([(0, (P(0),)), (1, (P(2), P(8)))])
        assert result.extra_cycles == 2
        assert result.per_instruction == {1: 2}  # the younger pays
        # Not always the youngest: the oldest owns two of three waves.
        result = arb.arbitrate([(0, (P(0), P(2), P(4))), (1, (P(6),))])
        assert result.extra_cycles == 3
        assert result.per_instruction == {0: 2, 1: 1}

    def test_attribution_reconciles_with_total(self):
        arb = ReadPortArbiter(flat_file(), ports_per_bank=1)
        result = arb.arbitrate(
            [(0, (P(0), P(2))), (1, (P(4), P(8))), (2, (P(1), P(6)))]
        )
        assert sum(result.per_instruction.values()) == result.extra_cycles
        assert sum(e for _, _, e in result.sites) == result.extra_cycles

    def test_single_instruction_group_matches_paper_penalty(self):
        from repro.sim import instruction_hazards

        fn = parse_function(
            "func @f {\nblock entry:\n  $fp8 = fmadd $fp0, $fp2, $fp4\n  ret\n}"
        )
        instr = list(fn.entry)[0]
        arb = ReadPortArbiter(flat_file(), ports_per_bank=1)
        reads = tuple(instr.bankable_reads(P(0).regclass))
        result = arb.arbitrate([(0, reads)])
        assert result.extra_cycles == instruction_hazards(
            instr, flat_file(), P(0).regclass
        ).conflicts


# ----------------------------------------------------------------------
# Hazard ordering
# ----------------------------------------------------------------------
class TestHazards:
    def test_raw_dependence_serializes(self):
        dependent = parse_function(
            "func @f {\nblock entry:\n"
            "  $fp8 = fneg $fp0\n  $fp9 = fneg $fp8\n  ret\n}"
        )
        independent = parse_function(
            "func @f {\nblock entry:\n"
            "  $fp8 = fneg $fp0\n  $fp9 = fneg $fp4\n  ret\n}"
        )
        wide = machine(OooConfig(issue_width=4, read_ports=4))
        assert wide.run(dependent).cycles > wide.run(independent).cycles

    def test_rename_eliminates_waw_war(self):
        # $fp8 is reused for two unrelated chains: a WAW on the redefine
        # and a WAR against the first chain's reader.  With rename the
        # second chain proceeds in parallel; the scoreboard serializes.
        fn_text = (
            "func @f {\nblock entry:\n"
            "  $fp8 = fneg $fp0\n"
            "  $fp1 = fneg $fp8\n"
            "  $fp8 = fneg $fp4\n"
            "  $fp5 = fneg $fp8\n"
            "  ret\n}"
        )
        renamed = machine(OooConfig(issue_width=4, read_ports=4, rename=True))
        scoreboard = machine(
            OooConfig(issue_width=4, read_ports=4, rename=False)
        )
        assert (
            renamed.run(parse_function(fn_text)).cycles
            < scoreboard.run(parse_function(fn_text)).cycles
        )

    def test_waw_respected_without_rename(self):
        # Without rename the redefinition of $fp8 must wait for the
        # first write, so the WAW pair costs a cycle two independent
        # writes do not pay at the same width.
        waw = parse_function(
            "func @f {\nblock entry:\n"
            "  $fp8 = fneg $fp0\n  $fp8 = fneg $fp4\n  ret\n}"
        )
        independent = parse_function(
            "func @f {\nblock entry:\n"
            "  $fp8 = fneg $fp0\n  $fp9 = fneg $fp4\n  ret\n}"
        )
        wide = machine(OooConfig(issue_width=4, read_ports=4, rename=False))
        assert wide.run(waw).cycles > wide.run(independent).cycles


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def long_chain(n=12):
    lines = ["func @f {", "block entry:"]
    lines.append("  $fp8 = fneg $fp0")
    for _ in range(n - 1):
        lines.append("  $fp8 = fneg $fp8")
    lines.append("  ret")
    lines.append("}")
    return parse_function("\n".join(lines))


class TestBackpressure:
    def test_rob_full_stalls_dispatch(self):
        fn = long_chain()
        tiny = machine(OooConfig(issue_width=4, read_ports=4, rob_size=2))
        roomy = machine(OooConfig(issue_width=4, read_ports=4, rob_size=64))
        assert tiny.run(fn).rob_stall_cycles > 0
        assert roomy.run(fn).rob_stall_cycles == 0

    def test_iq_full_stalls_dispatch(self):
        fn = long_chain()
        tiny = machine(
            OooConfig(issue_width=4, read_ports=4, rob_size=64, iq_size=1)
        )
        assert tiny.run(fn).iq_stall_cycles > 0

    def test_rename_pool_stalls_then_progresses(self):
        fn = long_chain(4)
        # Enough tags to make progress, few enough to stall dispatch.
        tight = machine(
            OooConfig(issue_width=4, read_ports=4, rob_size=64, phys_regs=2)
        )
        report = tight.run(fn)
        assert report.rename_stall_cycles > 0
        assert report.cycles >= 4  # still retires everything

    def test_exhausted_rename_pool_deadlocks_loudly(self):
        fn = parse_function(
            "func @f {\nblock entry:\n"
            "  $fp8 = fneg $fp0\n  $fp9 = fneg $fp4\n  ret\n}"
        )
        broken = machine(OooConfig(issue_width=1, read_ports=1, phys_regs=1))
        with pytest.raises(RuntimeError, match="deadlock"):
            broken.run(fn)


# ----------------------------------------------------------------------
# Profiler reconciliation
# ----------------------------------------------------------------------
class TestProfiler:
    def test_sites_sum_to_penalty_totals(self):
        fn = parse_function(
            "func @f {\nblock entry:\n"
            "  $fp8 = fadd $fp0, $fp8\n"      # bank conflict
            "  $fp10 = fadd $fp1, $fp6\n"     # subgroup misalignment
            "  ret\n}"
        )
        obs.TRACER.enable(views=("profile",))
        report = machine(
            OooConfig(issue_width=1, read_ports=1, rename=False),
            register_file=dsa_file(),
        ).run(fn)
        total = report.conflict_penalty_cycles + report.alignment_penalty_cycles
        assert total > 0
        profile = obs.Profile(obs.TRACER.spans)
        assert profile.total_cycles() == pytest.approx(total)
        details = {key[5] for key in profile.sites}
        assert any(d.startswith("port(") for d in details)
        assert any(d.startswith("align(") for d in details)


# ----------------------------------------------------------------------
# Degenerate parity: the anchor of the whole sweep
# ----------------------------------------------------------------------
class TestDegenerateParity:
    def test_degenerate_config_is_flagged(self):
        assert OooConfig.degenerate().is_degenerate
        assert not OooConfig().is_degenerate

    def test_parity_on_full_paper_workload_set(self):
        ctx = small_ctx()
        spec = OooConfig.degenerate().to_dict()
        for suite in PARITY_SUITES:
            inorder = ctx.results(
                suite, "dsa", 0, "bpc",
                measure_dynamic=False, measure_cycles=True,
            )
            degenerate = ctx.results(
                suite, "dsa", 0, "bpc",
                measure_dynamic=False, measure_cycles=True,
                machine_spec=spec,
            )
            assert len(inorder) == len(degenerate) > 0
            for a, b in zip(inorder, degenerate):
                assert a.program == b.program
                # Bit-identical floats, not approx: same integer counts
                # folded in the same accumulation order.
                assert a.conflict_cycles == b.conflict_cycles
                assert a.alignment_cycles == b.alignment_cycles

    @pytest.mark.parametrize("method", PARITY_METHODS)
    def test_parity_across_methods_on_dsa_suite(self, method):
        ctx = small_ctx()
        spec = OooConfig.degenerate().to_dict()
        inorder = ctx.results(
            "DSA-OP", "dsa", 0, method,
            measure_dynamic=False, measure_cycles=True,
        )
        degenerate = ctx.results(
            "DSA-OP", "dsa", 0, method,
            measure_dynamic=False, measure_cycles=True, machine_spec=spec,
        )
        for a, b in zip(inorder, degenerate):
            assert (a.conflict_cycles, a.alignment_cycles) == (
                b.conflict_cycles, b.alignment_cycles
            )

    def test_direct_machine_parity_on_conflict_kernel(self):
        fn = parse_function(
            "func @f {\nblock entry:\n"
            "  $fp8 = fadd $fp0, $fp8\n"
            "  $fp10 = fadd $fp1, $fp6\n"
            "  $fp9 = fmul $fp4, $fp12\n"
            "  ret\n}"
        )
        dsa = DsaMachine(dsa_file())
        deg = OooMachine(dsa_file(), config=OooConfig.degenerate())
        a = dsa.run(fn)
        b = deg.run(fn)
        assert a.conflict_penalty_cycles == b.conflict_penalty_cycles
        assert a.alignment_penalty_cycles == b.alignment_penalty_cycles


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_identical_across_fresh_runs(self):
        spec = {"model": "ooo", "issue_width": 2, "read_ports": 2}
        first = small_ctx().results(
            "DSA-OP", "dsa", 0, "bpc",
            measure_dynamic=False, measure_cycles=True, machine_spec=spec,
        )
        second = small_ctx().results(
            "DSA-OP", "dsa", 0, "bpc",
            measure_dynamic=False, measure_cycles=True, machine_spec=spec,
        )
        assert [(r.program, r.cycles, r.conflict_cycles) for r in first] == [
            (r.program, r.cycles, r.conflict_cycles) for r in second
        ]

    def test_identical_across_job_counts(self):
        spec = {"model": "ooo", "issue_width": 4, "read_ports": 1}
        serial = small_ctx(jobs=1).results(
            "DSA-OP", "dsa", 0, "bcr",
            measure_dynamic=False, measure_cycles=True, machine_spec=spec,
        )
        pooled = small_ctx(jobs=2).results(
            "DSA-OP", "dsa", 0, "bcr",
            measure_dynamic=False, measure_cycles=True, machine_spec=spec,
        )
        assert [(r.program, r.cycles, r.conflict_cycles) for r in serial] == [
            (r.program, r.cycles, r.conflict_cycles) for r in pooled
        ]


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
class TestSpec:
    def test_normalize_accepts_name_dict_none(self):
        assert normalize_machine_spec(None) == {"model": "dsa"}
        assert normalize_machine_spec("dsa") == {"model": "dsa"}
        ooo = normalize_machine_spec("ooo")
        assert ooo["model"] == "ooo" and ooo["issue_width"] == 2
        assert normalize_machine_spec({"model": "ooo", "issue_width": 4}) == (
            OooConfig(issue_width=4).to_dict()
        )

    def test_normalize_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            normalize_machine_spec("vliw")
        with pytest.raises(ValueError):
            normalize_machine_spec({"model": "dsa", "issue_width": 2})
        with pytest.raises(ValueError):
            normalize_machine_spec({"model": "ooo", "warp_size": 32})

    def test_build_machine_dispatches_on_model(self):
        assert isinstance(build_machine(flat_file()), DsaMachine)
        assert isinstance(build_machine(flat_file(), machine_spec="dsa"), DsaMachine)
        m = build_machine(flat_file(), machine_spec={"model": "ooo", "read_ports": 4})
        assert isinstance(m, OooMachine) and m.config.read_ports == 4

    def test_config_round_trips_through_dict(self):
        config = OooConfig(issue_width=4, read_ports=1, rename=False)
        assert OooConfig.from_dict(config.to_dict()) == config

    def test_wider_machines_hide_conflict_penalty(self):
        ctx = small_ctx()
        rows = {}
        for width, ports in ((1, 1), (4, 4)):
            spec = {"model": "ooo", "issue_width": width, "read_ports": ports}
            results = ctx.results(
                "DSA-OP", "dsa", 0, "non",
                measure_dynamic=False, measure_cycles=True, machine_spec=spec,
            )
            rows[(width, ports)] = sum(r.cycles or 0.0 for r in results)
        assert rows[(4, 4)] < rows[(1, 1)]
