"""Deadline-tiered degradation down the method ladder.

PresCount's three compared methods form a natural quality-vs-latency
ladder: ``bpc`` (bank assignment + pressure counting, best quality,
slowest) → ``bcr`` (per-instruction hinting) → ``non`` (plain greedy,
cheapest).  When a request's deadline budget cannot fit the tier it
asked for, the service walks down the ladder and serves the best tier
that still fits — the bottom rung is always served rather than timing
the request out.

Per-tier cost estimates come from :class:`TierCostModel`, an
exponentially-weighted moving average of observed per-request execution
seconds, seeded with conservative priors so the very first tiny-deadline
request already degrades deterministically instead of being waved
through on a zero estimate.
"""

from __future__ import annotations

import threading

#: Quality ladder, best tier first.
LADDER = ("bpc", "bcr", "non")

#: Seed estimates (seconds per request) used until real observations
#: arrive.  Magnitudes reflect the relative pipeline cost of each method
#: on the demo-sized kernels; the EWMA converges to reality quickly.
PRIOR_COST_S = {"bpc": 0.050, "bcr": 0.020, "non": 0.010}

#: Weight of the newest observation in each tier's moving average.
EWMA_ALPHA = 0.3


def ladder_from(method: str) -> tuple[str, ...]:
    """The tiers at or below *method*, best first."""
    if method not in LADDER:
        raise ValueError(f"unknown method {method!r}; expected one of {LADDER}")
    return LADDER[LADDER.index(method):]


class TierCostModel:
    """EWMA of per-tier execution latency (thread-safe), starting from
    :data:`PRIOR_COST_S` and weighting each observation by
    :data:`EWMA_ALPHA`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._estimates = dict(PRIOR_COST_S)
        self._observations = {tier: 0 for tier in self._estimates}

    def observe(self, method: str, seconds: float) -> None:
        with self._lock:
            old = self._estimates.get(method)
            if old is None or not self._observations.get(method):
                self._estimates[method] = seconds
            else:
                self._estimates[method] = (
                    EWMA_ALPHA * seconds + (1 - EWMA_ALPHA) * old
                )
            self._observations[method] = self._observations.get(method, 0) + 1

    def estimate(self, method: str) -> float:
        with self._lock:
            return self._estimates.get(method, 0.0)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                tier: {
                    "estimate_s": self._estimates[tier],
                    "observations": self._observations.get(tier, 0),
                }
                for tier in sorted(self._estimates)
            }


def select_tier(
    requested: str, remaining_s: float | None, model: TierCostModel
) -> tuple[str, bool]:
    """Pick the tier to execute given the remaining deadline budget.

    Returns ``(tier, degraded)``.  ``remaining_s is None`` means the
    request carries no deadline: the requested tier is served.  An
    exhausted budget (``<= 0``) drops straight to the bottom rung.
    """
    ladder = ladder_from(requested)
    if remaining_s is None:
        return requested, False
    if remaining_s <= 0:
        return ladder[-1], ladder[-1] != requested
    for tier in ladder:
        if model.estimate(tier) <= remaining_s:
            return tier, tier != requested
    return ladder[-1], ladder[-1] != requested
