"""The five Fig. 4 phases as function passes.

Each phase of the paper's pipeline (coalescing → SDG subgroup splitting →
pre-allocation scheduling → RCG bank assignment → enhanced greedy
allocation) is wrapped in a :class:`~repro.passes.Pass` so
:func:`repro.prescount.pipeline.run_pipeline` reduces to composing a pass
list per method and handing it to a
:class:`~repro.passes.FunctionPassManager` with one shared
:class:`~repro.passes.AnalysisManager`.

Artifact flow follows the pipeline state mapping: the bank-assignment
pass publishes its :class:`~repro.banks.assignment.BankAssignment` under
``"bank-assignment"``; the allocation pass reads it there to build the
method's policy, and publishes the Algorithm 2
:class:`~repro.prescount.subgroup.SubgroupState` under ``"subgroups"``.

Phases that iterate mutate-and-reanalyze loops (coalescing, SDG
splitting, scheduling) invalidate through the shared manager *inside*
their implementation functions and therefore declare ``PRESERVE_ALL``
here; the pure bank-assignment phase genuinely preserves everything.
"""

from __future__ import annotations

from ..alloc.base import NaturalOrderPolicy
from ..alloc.coalescing import CoalescingResult, coalesce
from ..alloc.greedy import GreedyAllocator
from ..alloc.scheduling import SchedulingResult, schedule_function
from ..banks.assignment import BankAssignment
from ..passes import (
    PRESERVE_ALL,
    AnalysisManager,
    ConflictCostAnalysis,
    ConflictGraphAnalysis,
    FlatIRAnalysis,
    LiveIntervalsAnalysis,
    Pass,
    SDGAnalysis,
)
from .bank_assigner import PresCountBankAssigner, PresCountPolicy
from .bcr import BcrPolicy
from .sdg_split import SdgSplitConfig, SdgSplitResult, split_subgroups
from .subgroup import DsaPresCountPolicy, SubgroupState

class _ConfiguredPass(Pass):
    """Base for passes parameterized by a :class:`PipelineConfig`."""

    def __init__(self, config):
        self.config = config


class CoalescingPass(_ConfiguredPass):
    """Standard register coalescing (white phase #1)."""

    name = "coalescing"

    def run(self, function, am: AnalysisManager, state) -> CoalescingResult:
        return coalesce(function, self.config.regclass, am=am)

    def preserved(self, result):
        return PRESERVE_ALL  # coalesce() invalidates per mutating round


class SdgSplitPass(_ConfiguredPass):
    """SDG-based subgroup splitting (blue phase, DSA + bpc only)."""

    name = "sdg-split"

    def run(self, function, am: AnalysisManager, state) -> SdgSplitResult:
        config = self.config
        sdg_config = config.sdg_config
        if sdg_config is None and config.dsa:
            # Balance share: one bank's slice of a single subgroup.
            share = max(
                4,
                config.register_file.registers_per_bank
                // config.register_file.num_subgroups,
            )
            sdg_config = SdgSplitConfig(max_component_size=share)
        return split_subgroups(function, config.regclass, sdg_config, am=am)

    def preserved(self, result):
        return PRESERVE_ALL  # split_subgroups() invalidates once, after its last cut


class SchedulingPass(_ConfiguredPass):
    """Pressure-aware pre-allocation list scheduling (white phase #2)."""

    name = "scheduling"
    #: Reorders instructions within blocks but never adds, removes, or
    #: rewrites one; the Eq. 2 fold is order-independent, so the cost
    #: delta is structurally zero.
    cost_neutral = True

    def run(self, function, am: AnalysisManager, state) -> SchedulingResult:
        return schedule_function(function, am=am)

    def preserved(self, result):
        return PRESERVE_ALL  # schedule_function() invalidates on reorder


class BankAssignmentPass(_ConfiguredPass):
    """PresCount RCG-based bank assignment — Algorithm 1 (blue phase).

    Purely analytical: it colors the RCG and publishes the resulting
    :class:`BankAssignment` without touching the IR, so every cached
    analysis survives it.
    """

    name = "bank-assignment"
    #: Colors the RCG without touching the IR, so the conflict-cost
    #: fold cannot move across it.
    cost_neutral = True

    def run(self, function, am: AnalysisManager, state) -> BankAssignment:
        config = self.config
        assigner = PresCountBankAssigner(
            config.register_file,
            config.regclass,
            thres_ratio=config.thres_ratio,
            use_pressure_counting=config.use_pressure_counting,
            cost_ordering=config.cost_ordering,
            balance_free_registers=config.balance_free_registers,
        )
        if config.bundle_aware:
            # The bundle extension adds soft edges; build a private RCG
            # (over the cached lowering and cost model) so the cached
            # hard-edges-only graph stays pristine.
            from ..analysis.conflict_graph import ConflictGraph
            from .bundle_aware import add_bundle_edges

            cost_model = am.get(ConflictCostAnalysis, regclass=config.regclass)
            rcg = ConflictGraph.build(
                function, cost_model, config.regclass,
                flat=am.get(FlatIRAnalysis),
            )
            add_bundle_edges(rcg, function, cost_model, config.regclass)
        else:
            rcg = am.get(ConflictGraphAnalysis, regclass=config.regclass)
        assignment = assigner.assign(
            function, rcg=rcg, intervals=am.get(LiveIntervalsAnalysis)
        )
        assignment.strict = bool(config.strict_banks)
        return assignment

    def preserved(self, result):
        return PRESERVE_ALL


class AllocationPass(_ConfiguredPass):
    """Enhanced greedy register allocation (the final Fig. 4 phase).

    Builds the method's candidate-ordering policy from the published
    bank assignment (``bpc``), per-instruction hinting (``bcr``), or
    natural order (``non``), then runs the greedy allocator over the
    shared analysis cache.  The allocator invalidates all but the
    CFG-level analyses itself once it has rewritten the function.
    """

    name = "allocation"
    #: Allocation renames registers within the costed class; operands
    #: that are distinct in an instruction are simultaneously live and
    #: so stay distinct under any correct assignment, and inserted spill
    #: reloads / split copies are never ARITH — the Eq. 2 potential-cost
    #: fold is allocation-invariant (only *actual* conflicts move).
    cost_neutral = True

    def run(self, function, am: AnalysisManager, state):
        config = self.config
        subgroups = None
        if config.method == "bpc":
            bank_assignment = state["bank-assignment"]
            if config.dsa:
                file_ = config.register_file
                subgroups = SubgroupState.from_function(
                    function, file_.num_subgroups, config.regclass, am=am
                )
                policy = DsaPresCountPolicy(file_, bank_assignment, subgroups)
            else:
                policy = PresCountPolicy(config.register_file, bank_assignment)
        elif config.method == "bcr":
            policy = BcrPolicy(config.register_file, config.regclass)
        else:
            policy = NaturalOrderPolicy()
        state["subgroups"] = subgroups

        allocator = GreedyAllocator(
            config.register_file,
            policy,
            config.regclass,
            enable_split=config.enable_live_range_split,
        )
        return allocator.run(function, clone=False, am=am)

    def preserved(self, result):
        return PRESERVE_ALL  # GreedyAllocator.run() invalidates to CFG_ONLY
