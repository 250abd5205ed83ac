"""The combined register allocation pipeline of Fig. 4.

Phase order (exactly the paper's, with the two blue phases new):

1. **Register Coalescing** (standard LLVM phase)
2. **SDG-based Subgroup Splitting** (optional, DSA only) — placed *after*
   coalescing so its copies cannot be re-coalesced
3. **Pre-allocation Scheduling** (standard LLVM phase)
4. **RCG-based Bank Assignment** (PresCount, Algorithm 1) — placed after
   scheduling because it consumes live-range information without
   modifying it
5. **Enhanced Register Allocation** — the greedy allocator steered by the
   method's policy (and, on the DSA, by Algorithm 2 subgroup hints)

The three compared methods select what runs:

====== ============================== =======================
method bank assignment phase          allocation policy
====== ============================== =======================
non    (none)                         natural order
bcr    (none)                         per-instruction hinting
bpc    PresCount (Algorithm 1)        bank-ordered candidates
====== ============================== =======================

Since the pass-manager refactor this module no longer hand-composes the
phases: each phase is a :class:`~repro.passes.Pass` (see
:mod:`.passes`), :func:`build_pipeline` merely selects the pass list the
config asks for, and :func:`run_pipeline` is a *thin builder* — it clones
the function, hands the pass list to a
:class:`~repro.passes.FunctionPassManager` over one shared
:class:`~repro.passes.AnalysisManager` (so live intervals, the conflict
cost model, and the SDG are computed once per function state instead of
once per phase), and repackages the final state mapping as a
:class:`PipelineResult`.

Observability: every pass execution is wrapped in a span by the pass
manager, :func:`run_pipeline` itself opens a ``pipeline`` span, and the
bank assigner records its Algorithm 1 decisions — see :mod:`repro.obs`
and ``docs/OBSERVABILITY.md``.  All of it is off by default and the
pipeline's outputs are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..alloc.base import AllocationResult
from ..alloc.coalescing import CoalescingResult
from ..banks.assignment import BankAssignment
from ..banks.register_file import BankSubgroupRegisterFile, RegisterFile
from ..ir.function import Function
from ..ir.types import FP, RegClass
from ..obs import TRACER
from ..passes import AnalysisManager, FunctionPassManager
from .bank_assigner import DEFAULT_THRES_RATIO
from .passes import (
    AllocationPass,
    BankAssignmentPass,
    CoalescingPass,
    SchedulingPass,
    SdgSplitPass,
)
from .sdg_split import SdgSplitConfig, SdgSplitResult
from .subgroup import SubgroupState

#: The method names used throughout experiments and benches.
METHODS = ("non", "bcr", "bpc")


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs besides the function.

    Attributes:
        register_file: Target register file (banked, or bank-subgrouped
            for the DSA; a :class:`BankSubgroupRegisterFile` enables the
            SDG phases, see :attr:`dsa`).
        method: One of :data:`METHODS`.
        strict_banks: Hard (True) vs soft (False) bank constraint for
            bpc on a banked file.  Soft by default on every file; the
            DSA's policy always orders the whole file (Algorithm 2 hints,
            then the rest of the bank, then the other banks), so the flag
            has no effect there.
        thres_ratio: Algorithm 1's THRES as a fraction of the file size.
        use_pressure_counting / cost_ordering / balance_free_registers:
            ablation switches forwarded to the bank assigner.
    """

    register_file: RegisterFile
    method: str = "bpc"
    regclass: RegClass = FP
    run_coalescing: bool = True
    run_scheduling: bool = True
    enable_live_range_split: bool = True
    strict_banks: bool = False
    thres_ratio: float = DEFAULT_THRES_RATIO
    sdg_config: SdgSplitConfig | None = None
    use_pressure_counting: bool = True
    cost_ordering: bool = True
    balance_free_registers: bool = True
    #: Future-work extension (§IV-B3): add inter-instruction bundle edges
    #: to the RCG so bank assignment also improves VLIW dual-issue.
    bundle_aware: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")

    @property
    def dsa(self) -> bool:
        """Whether the SDG phases run (subgroup splitting + Algorithm 2
        hints): exactly when the file is a bank-subgroup (DSA) file."""
        return isinstance(self.register_file, BankSubgroupRegisterFile)


@dataclass
class PipelineResult:
    """All artifacts of one pipeline run."""

    function: Function
    allocation: AllocationResult
    bank_assignment: BankAssignment | None = None
    subgroups: SubgroupState | None = None
    coalescing: CoalescingResult | None = None
    sdg_split: SdgSplitResult | None = None
    #: The shared analysis cache of the run; its surviving entries are
    #: valid for the *allocated* function, so downstream measurement
    #: (static stats, dynamic estimation) can keep hitting it.
    analyses: AnalysisManager | None = None

    @property
    def spill_count(self) -> int:
        return self.allocation.spill_count

    @property
    def copies_inserted(self) -> int:
        sdg = self.sdg_split.copies_inserted if self.sdg_split else 0
        return self.allocation.copies_inserted + sdg


def build_pipeline(config: PipelineConfig) -> FunctionPassManager:
    """Compose the Fig. 4 pass list selected by *config*.

    ====== ===========================================================
    method passes
    ====== ===========================================================
    non    [coalescing] → [scheduling] → allocation
    bcr    [coalescing] → [scheduling] → allocation
    bpc    [coalescing] → [sdg-split]* → [scheduling] → bank-assignment
           → allocation            (* DSA register files only)
    ====== ===========================================================
    """
    fpm = FunctionPassManager()
    if config.run_coalescing:
        fpm.add(CoalescingPass(config))
    if config.dsa and config.method == "bpc":
        fpm.add(SdgSplitPass(config))
    if config.run_scheduling:
        fpm.add(SchedulingPass(config))
    if config.method == "bpc":
        fpm.add(BankAssignmentPass(config))
    fpm.add(AllocationPass(config))
    return fpm


def run_pipeline(function: Function, config: PipelineConfig) -> PipelineResult:
    """Run the Fig. 4 pipeline on (a clone of) *function*."""
    with TRACER.span(
        "pipeline",
        category="pipeline",
        function=function.name,
        method=config.method,
    ):
        work = function.clone()
        am = AnalysisManager(work)
        state = build_pipeline(config).run(work, am=am)

    allocation: AllocationResult = state["allocation"]
    coalescing_result: CoalescingResult | None = state.get("coalescing")
    if coalescing_result is not None:
        allocation.copies_removed += coalescing_result.copies_removed

    return PipelineResult(
        function=work,
        allocation=allocation,
        bank_assignment=state.get("bank-assignment"),
        subgroups=state.get("subgroups"),
        coalescing=coalescing_result,
        sdg_split=state.get("sdg-split"),
        analyses=am,
    )
