"""Function passes and the pass manager that sequences them.

A :class:`Pass` is one unit of transformation (or pure computation) over a
:class:`~repro.ir.function.Function`.  The
:class:`FunctionPassManager` runs a pass list in order, threading one
shared :class:`~repro.passes.analysis_manager.AnalysisManager` through all
of them, applying each pass's :meth:`Pass.preserved` set afterwards, and,
while :data:`~repro.obs.TRACER` records, noting each pass's cache traffic
and instruction delta on its span (the ``--pass-stats`` view).

Passes communicate through the *state* mapping: the manager stores each
pass's return value under its ``name`` (e.g. the RCG bank-assignment pass
publishes the :class:`~repro.banks.assignment.BankAssignment` the
allocation pass consumes), mirroring how the paper's phases hand artifacts
down the Fig. 4 pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..obs import TRACER
from .analysis_manager import PRESERVE_NONE, AnalysisManager, CFGAnalysis


def _potential_cost(
    function: Function,
    pass_: "Pass",
    freq_cache: list | None = None,
    am: "AnalysisManager | None" = None,
) -> float:
    """Total Eq. 2 conflict cost of *function*'s current state.

    Only computed for the metrics view (``TRACER.wants("metrics")``); the
    per-phase difference is noted as the pass span's ``cost_delta``.
    Computed directly (not through the analysis manager) so it never
    perturbs the pass spans' cache counters, and via the scalar
    :func:`~repro.analysis.cost.total_potential_cost` fold so it never
    allocates the full cost model's per-register dicts.

    *freq_cache* is a caller-owned ``[signature, frequencies, cfg]``
    triple: block frequencies depend only on the CFG edge shape and
    trip-count metadata (:func:`~repro.analysis.cost.loop_shape_signature`),
    so the loop analysis is rebuilt only when a pass actually
    restructures control flow — most passes rewrite instructions in
    place, and for them the cached frequency map makes costing a plain
    fold.  The third slot remembers the identity of *am*'s cached CFG
    analysis: while the exact same CFG object stays cached, no pass can
    have restructured control flow (any that did must invalidate it),
    so even the signature walk is skipped.
    """
    from ..analysis.cost import (
        block_frequencies,
        loop_shape_signature,
        total_potential_cost,
    )

    regclass = getattr(getattr(pass_, "config", None), "regclass", None)
    if freq_cache is None:
        return total_potential_cost(function, regclass=regclass)
    cfg = am.cached(CFGAnalysis) if am is not None else None
    if cfg is None or cfg is not freq_cache[2]:
        signature = loop_shape_signature(function)
        if freq_cache[0] != signature:
            freq_cache[0] = signature
            freq_cache[1] = block_frequencies(function)
        freq_cache[2] = cfg
    return total_potential_cost(
        function, regclass=regclass, frequencies=freq_cache[1]
    )


class Pass:
    """Base class for function passes.

    Subclasses set :attr:`name` (unique within a pipeline; it is the key
    their result is published under) and implement :meth:`run`.  A pass
    that manages invalidation itself — because it mutates and re-analyzes
    iteratively — returns ``PRESERVE_ALL`` from :meth:`preserved` and
    calls :meth:`AnalysisManager.invalidate` inline instead.
    """

    name: str = "pass"

    #: Whether :meth:`run` can change the function's Eq. 2 conflict cost.
    #: Purely analytical passes (no IR mutation) and pure reorderings
    #: (the cost fold is order-independent within a block) set this True
    #: so the manager reuses the pre-pass cost for their ``cost_delta``
    #: — zero by construction — instead of re-folding it.
    cost_neutral: bool = False

    def run(self, function: Function, am: AnalysisManager, state: dict):
        """Transform *function* (in place); the return value is published
        in the pipeline state under :attr:`name`."""
        raise NotImplementedError

    def preserved(self, result):
        """Analyses still valid after :meth:`run` returned *result*.

        The default is maximally conservative: nothing survives.
        """
        return PRESERVE_NONE

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class FunctionPassManager:
    """Runs passes over one function with a shared analysis cache."""

    passes: list[Pass] = field(default_factory=list)

    def add(self, pass_: Pass) -> "FunctionPassManager":
        self.passes.append(pass_)
        return self

    def run(
        self,
        function: Function,
        am: AnalysisManager | None = None,
        state: dict | None = None,
    ) -> dict:
        """Run all passes in order; returns the pipeline state mapping."""
        if am is None:
            am = AnalysisManager(function)
        if am.function is not function:
            raise ValueError(
                "analysis manager is bound to a different function "
                f"({am.function!r} vs {function!r})"
            )
        state = state if state is not None else {}
        traced = TRACER.enabled
        cost_deltas = TRACER.wants("metrics")
        # The function only mutates inside passes, so the cost computed
        # *after* pass N is still exact *before* pass N+1: cache it across
        # phases (keyed by the costing regclass) instead of rebuilding the
        # cost model twice per pass.
        carried_cost: tuple[object, float] | None = None
        # Block-frequency cache for the costing above: [signature, freqs],
        # threaded through _potential_cost so loop analysis reruns only
        # when a pass changes the CFG shape (see loop_shape_signature).
        freq_cache: list = [None, None, None]
        for pass_ in self.passes:
            if traced:
                hits0 = am.total_hits()
                misses0 = am.total_misses()
                inval0 = am.total_invalidations()
                instrs0 = function.instruction_count()
            if cost_deltas:
                regclass = getattr(
                    getattr(pass_, "config", None), "regclass", None
                )
                if carried_cost is not None and carried_cost[0] == regclass:
                    cost0 = carried_cost[1]
                else:
                    cost0 = _potential_cost(function, pass_, freq_cache, am)
            with TRACER.span(
                pass_.name, category="pass", function=function.name
            ) as span:
                result = pass_.run(function, am, state)
                am.invalidate(pass_.preserved(result))
                if traced:
                    span.note(
                        hits=am.total_hits() - hits0,
                        misses=am.total_misses() - misses0,
                        inval=am.total_invalidations() - inval0,
                        d_instrs=function.instruction_count() - instrs0,
                    )
                if cost_deltas:
                    if pass_.cost_neutral:
                        cost1 = cost0
                    else:
                        cost1 = _potential_cost(function, pass_, freq_cache, am)
                    carried_cost = (regclass, cost1)
                    span.note(cost_delta=cost1 - cost0)
            state[pass_.name] = result
        return state
