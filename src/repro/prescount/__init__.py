"""PresCount — the paper's primary contribution.

* :mod:`bank_assigner` — Algorithm 1 (cost-ordered RCG coloring with bank
  pressure counting) and its allocator policy.
* :mod:`bcr` — the Intel-style per-instruction hinting baseline.
* :mod:`subgroup` — Algorithm 2 (subgroup displacement bookkeeping and
  DSA allocation hints).
* :mod:`sdg_split` — SDG-based subgroup splitting (Figs. 8/9).
* :mod:`passes` — the five Fig. 4 phases as function passes.
* :mod:`pipeline` — the combined Fig. 4 register allocation pipeline.
"""

from .bank_assigner import (
    DEFAULT_THRES_RATIO,
    PresCountBankAssigner,
    PresCountPolicy,
)
from .bcr import BcrPolicy
from .bundle_aware import BundleEdgeReport, add_bundle_edges
from .passes import (
    AllocationPass,
    BankAssignmentPass,
    CoalescingPass,
    SchedulingPass,
    SdgSplitPass,
)
from .pipeline import (
    METHODS,
    PipelineConfig,
    PipelineResult,
    build_pipeline,
    run_pipeline,
)
from .sdg_split import SdgSplitConfig, SdgSplitResult, split_subgroups
from .subgroup import DsaPresCountPolicy, SubgroupState

__all__ = [
    "AllocationPass",
    "BankAssignmentPass",
    "BcrPolicy",
    "BundleEdgeReport",
    "CoalescingPass",
    "add_bundle_edges",
    "build_pipeline",
    "DEFAULT_THRES_RATIO",
    "DsaPresCountPolicy",
    "METHODS",
    "PipelineConfig",
    "PipelineResult",
    "PresCountBankAssigner",
    "PresCountPolicy",
    "SchedulingPass",
    "SdgSplitConfig",
    "SdgSplitResult",
    "SdgSplitPass",
    "SubgroupState",
    "run_pipeline",
    "split_subgroups",
]
