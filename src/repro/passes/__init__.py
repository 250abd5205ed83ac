"""Pass-manager infrastructure: passes and cached analyses.

The Fig. 4 pipeline phases are expressed as :class:`Pass` objects run by a
:class:`FunctionPassManager`; the :class:`AnalysisManager` lazily computes
and caches the analyses they share (the flat lowering, live intervals,
the RCG, loop info, ...) and invalidates precisely what each transform
fails to preserve.  See :mod:`repro.prescount.passes` for the concrete
phase passes and :func:`repro.obs.render_pass_stats` for
``--pass-stats``.
"""

from .analysis_manager import (
    ALL_ANALYSES,
    CFG_ONLY,
    PRESERVE_ALL,
    PRESERVE_NONE,
    Analysis,
    AnalysisCounters,
    AnalysisManager,
    CFGAnalysis,
    ConflictCostAnalysis,
    ConflictGraphAnalysis,
    FlatIRAnalysis,
    FlowFrequencyAnalysis,
    InterferenceAnalysis,
    LiveIntervalsAnalysis,
    LoopInfoAnalysis,
    SDGAnalysis,
    caching_disabled,
)
from .manager import FunctionPassManager, Pass

__all__ = [
    "ALL_ANALYSES",
    "Analysis",
    "AnalysisCounters",
    "AnalysisManager",
    "CFGAnalysis",
    "CFG_ONLY",
    "ConflictCostAnalysis",
    "ConflictGraphAnalysis",
    "FlatIRAnalysis",
    "FlowFrequencyAnalysis",
    "FunctionPassManager",
    "InterferenceAnalysis",
    "LiveIntervalsAnalysis",
    "LoopInfoAnalysis",
    "PRESERVE_ALL",
    "PRESERVE_NONE",
    "Pass",
    "SDGAnalysis",
    "caching_disabled",
]
