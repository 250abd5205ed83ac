"""Cached function analyses with precise invalidation.

A miniature of LLVM's ``AnalysisManager``: transform passes request the
analyses they need through :meth:`AnalysisManager.get`, results are
computed lazily and cached per ``(analysis class, parameters)`` key, and
after a transform runs only the analyses it did *not* preserve are
dropped.  An analysis is preserved only when every analysis it is derived
from is preserved too (dropping :class:`LivenessAnalysis` transitively
drops :class:`LiveIntervalsAnalysis`).

The manager is bound to exactly one :class:`~repro.ir.function.Function`
object — the mutable IR the Fig. 4 pipeline transforms in place — and
keeps per-analysis hit/miss/invalidation counters so the cache's
effectiveness is measurable.  While :data:`~repro.obs.TRACER` records,
each miss is an ``analysis`` span and each hit or invalidation a
``hit:<Analysis>`` / ``inval:<Analysis>`` count on the innermost span,
which the ``--pass-stats`` view folds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from ..analysis.conflict_graph import ConflictGraph
from ..analysis.cost import ConflictCostModel
from ..analysis.interference import InterferenceGraph
from ..analysis.intervals import LiveIntervals
from ..analysis.liveness import Liveness
from ..analysis.sdg import SameDisplacementGraph
from ..analysis.slots import SlotIndexes
from ..ir.cfg import CFG
from ..ir.flat import FlatFunction
from ..ir.function import Function
from ..ir.loops import LoopInfo
from ..obs import TRACER


class _PreserveAll:
    """Sentinel: the transform changed nothing the cache can observe."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "PRESERVE_ALL"


#: Pass this to :meth:`AnalysisManager.invalidate` to keep every analysis.
PRESERVE_ALL = _PreserveAll()
#: The safe default: every cached analysis is dropped.
PRESERVE_NONE: frozenset = frozenset()
#: Analyses that only depend on block structure (labels, terminators,
#: ``trip_count`` metadata) — preserved by passes that rewrite operands or
#: reorder/insert instructions without touching the block graph.
CFG_ONLY: frozenset = None  # filled in below, after the classes exist


class Analysis:
    """One cacheable analysis kind.

    Subclasses wrap an existing ``X.build(function, ...)`` constructor and
    declare, via :attr:`depends`, which other analyses the result is
    derived from.  Keyword parameters passed to
    :meth:`AnalysisManager.get` become part of the cache key, so e.g. the
    FP and the unrestricted conflict cost models cache independently.
    """

    #: Analyses whose cached results feed this one.  A preserved analysis
    #: whose dependency is invalidated is invalidated as well.
    depends: tuple[type["Analysis"], ...] = ()

    @classmethod
    def name(cls) -> str:
        suffix = "Analysis"
        n = cls.__name__
        return n[: -len(suffix)] if n.endswith(suffix) else n

    @classmethod
    def run(cls, function: Function, am: "AnalysisManager", **params):
        raise NotImplementedError


class CFGAnalysis(Analysis):
    """Control-flow graph (:class:`repro.ir.cfg.CFG`)."""

    @classmethod
    def run(cls, function: Function, am: "AnalysisManager") -> CFG:
        return CFG.build(function)


class FlatIRAnalysis(Analysis):
    """Flat-array lowering (:class:`repro.ir.flat.FlatFunction`).

    The snapshot goes stale on any operand rewrite or instruction
    insertion, so it is deliberately *not* in :data:`CFG_ONLY`: every
    transform invalidation drops it alongside the analyses derived from
    it.
    """

    @classmethod
    def run(cls, function: Function, am: "AnalysisManager") -> FlatFunction:
        return FlatFunction(function)


class SlotIndexesAnalysis(Analysis):
    """Linear instruction numbering (:class:`repro.analysis.slots.SlotIndexes`)."""

    @classmethod
    def run(cls, function: Function, am: "AnalysisManager") -> SlotIndexes:
        return SlotIndexes.build(function)


class LivenessAnalysis(Analysis):
    """Block-level live-in/out sets (:class:`repro.analysis.liveness.Liveness`)."""

    depends = (CFGAnalysis, FlatIRAnalysis)

    @classmethod
    def run(cls, function: Function, am: "AnalysisManager") -> Liveness:
        return Liveness.build(
            function, am.get(CFGAnalysis), flat=am.get(FlatIRAnalysis)
        )


class LoopInfoAnalysis(Analysis):
    """Loop forest and block frequencies (:class:`repro.ir.loops.LoopInfo`)."""

    depends = (CFGAnalysis,)

    @classmethod
    def run(cls, function: Function, am: "AnalysisManager") -> LoopInfo:
        return LoopInfo.build(function, am.get(CFGAnalysis))


class LiveIntervalsAnalysis(Analysis):
    """Per-register live intervals (:class:`repro.analysis.intervals.LiveIntervals`)."""

    depends = (CFGAnalysis, SlotIndexesAnalysis, LivenessAnalysis, FlatIRAnalysis)

    @classmethod
    def run(cls, function: Function, am: "AnalysisManager") -> LiveIntervals:
        return LiveIntervals.build(
            function,
            am.get(CFGAnalysis),
            am.get(SlotIndexesAnalysis),
            am.get(LivenessAnalysis),
            flat=am.get(FlatIRAnalysis),
        )


class ConflictCostAnalysis(Analysis):
    """Eq. 1/2 conflict cost model (:class:`repro.analysis.cost.ConflictCostModel`)."""

    depends = (LoopInfoAnalysis, FlatIRAnalysis)

    @classmethod
    def run(
        cls,
        function: Function,
        am: "AnalysisManager",
        regclass=None,
        conflict_relevant_only: bool = True,
    ) -> ConflictCostModel:
        return ConflictCostModel.build(
            function,
            am.get(LoopInfoAnalysis),
            regclass=regclass,
            conflict_relevant_only=conflict_relevant_only,
            flat=am.get(FlatIRAnalysis),
        )


class ConflictGraphAnalysis(Analysis):
    """The RCG (:class:`repro.analysis.conflict_graph.ConflictGraph`)."""

    depends = (ConflictCostAnalysis, FlatIRAnalysis)

    @classmethod
    def run(
        cls, function: Function, am: "AnalysisManager", regclass=None
    ) -> ConflictGraph:
        cost_model = am.get(ConflictCostAnalysis, regclass=regclass)
        return ConflictGraph.build(
            function, cost_model, regclass, flat=am.get(FlatIRAnalysis)
        )


class InterferenceAnalysis(Analysis):
    """The RIG (:class:`repro.analysis.interference.InterferenceGraph`)."""

    depends = (LiveIntervalsAnalysis,)

    @classmethod
    def run(
        cls, function: Function, am: "AnalysisManager", regclass=None
    ) -> InterferenceGraph:
        return InterferenceGraph.build(
            function, am.get(LiveIntervalsAnalysis), regclass
        )


class SDGAnalysis(Analysis):
    """Same Displacement Graph (:class:`repro.analysis.sdg.SameDisplacementGraph`)."""

    depends = (FlatIRAnalysis,)

    @classmethod
    def run(
        cls, function: Function, am: "AnalysisManager", regclass=None
    ) -> SameDisplacementGraph:
        return SameDisplacementGraph.build(
            function, regclass, flat=am.get(FlatIRAnalysis)
        )


CFG_ONLY = frozenset({CFGAnalysis, LoopInfoAnalysis})

#: Every built-in analysis, for registries and documentation.
ALL_ANALYSES: tuple[type[Analysis], ...] = (
    CFGAnalysis,
    FlatIRAnalysis,
    SlotIndexesAnalysis,
    LivenessAnalysis,
    LoopInfoAnalysis,
    LiveIntervalsAnalysis,
    ConflictCostAnalysis,
    ConflictGraphAnalysis,
    InterferenceAnalysis,
    SDGAnalysis,
)


@dataclass
class AnalysisCounters:
    """Cache effectiveness counters of one analysis kind."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


#: Process-wide default for new managers; flipped by :func:`caching_disabled`
#: so benchmarks can measure the legacy rebuild-everything behaviour.
_DEFAULT_CACHING = True


@contextmanager
def caching_disabled():
    """Context manager: new :class:`AnalysisManager` objects recompute on
    every request (the pre-pass-manager behaviour), for A/B timing."""
    global _DEFAULT_CACHING
    previous = _DEFAULT_CACHING
    _DEFAULT_CACHING = False
    try:
        yield
    finally:
        _DEFAULT_CACHING = previous


class AnalysisManager:
    """Lazily computes and caches analyses for one function."""

    def __init__(self, function: Function, caching: bool | None = None):
        self.function = function
        self.caching = _DEFAULT_CACHING if caching is None else caching
        self._cache: dict[tuple, object] = {}
        self.counters: dict[str, AnalysisCounters] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _key(analysis: type[Analysis], params: dict) -> tuple:
        return (analysis, tuple(sorted(params.items())))

    def counter(self, analysis: type[Analysis]) -> AnalysisCounters:
        return self.counters.setdefault(analysis.name(), AnalysisCounters())

    def get(self, analysis: type[Analysis], **params):
        """The cached result of *analysis*, computing it on first request."""
        key = self._key(analysis, params)
        counter = self.counter(analysis)
        if key in self._cache:
            counter.hits += 1
            if TRACER.enabled:
                TRACER.count("hit:" + analysis.name())
            return self._cache[key]
        counter.misses += 1
        with TRACER.span(
            analysis.name(), category="analysis", function=self.function.name
        ):
            result = analysis.run(self.function, self, **params)
        if self.caching:
            self._cache[key] = result
        return result

    def cached(self, analysis: type[Analysis], **params):
        """Peek: the cached result or None, without computing (no counters)."""
        return self._cache.get(self._key(analysis, params))

    # ------------------------------------------------------------------
    def invalidate(self, preserved=PRESERVE_NONE) -> int:
        """Drop every cached analysis not (transitively) in *preserved*.

        Returns the number of cache entries dropped.  ``PRESERVE_ALL``
        keeps everything; the default drops everything.
        """
        if preserved is PRESERVE_ALL:
            return 0
        preserved_set = frozenset(preserved)
        survives: dict[type[Analysis], bool] = {}

        def _survives(cls: type[Analysis]) -> bool:
            if cls not in survives:
                survives[cls] = cls in preserved_set and all(
                    _survives(dep) for dep in cls.depends
                )
            return survives[cls]

        dropped = 0
        for key in list(self._cache):
            cls = key[0]
            if not _survives(cls):
                del self._cache[key]
                self.counter(cls).invalidations += 1
                if TRACER.enabled:
                    TRACER.count("inval:" + cls.name())
                dropped += 1
        return dropped

    def clear(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_hits(self) -> int:
        return sum(c.hits for c in self.counters.values())

    def total_misses(self) -> int:
        return sum(c.misses for c in self.counters.values())

    def total_invalidations(self) -> int:
        return sum(c.invalidations for c in self.counters.values())

    def stats_snapshot(self) -> dict[str, dict[str, int]]:
        """Plain-dict counter snapshot (picklable, for pool merging)."""
        return {
            name: {
                "hits": c.hits,
                "misses": c.misses,
                "invalidations": c.invalidations,
            }
            for name, c in self.counters.items()
        }

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, analysis: type[Analysis]) -> bool:
        return any(key[0] is analysis for key in self._cache)
