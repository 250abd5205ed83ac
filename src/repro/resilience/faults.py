"""Seeded, deterministic fault injection for the allocation service.

Chaos testing only works when the chaos is *reproducible*: a fault
schedule that fires differently on every run cannot back a CI gate.
This module provides a :class:`FaultPlan` — a JSON-loadable list of
:class:`FaultPoint` rules, each bound to a named injection *site* — and
a process-wide :data:`FAULTS` injector the hardened code paths consult.

Sites (see :data:`SITES` for the modes each accepts):

==================  ====================================================
``cache.disk.read``   corrupt bytes coming off the on-disk cache
                      (``bitflip``, ``truncate``, ``garbage``)
``cache.disk.write``  tear or fail a cache insert (``partial`` writes a
                      truncated entry straight to the final path,
                      bypassing the atomic rename; ``error`` raises
                      ``OSError``)
``queue.execute``     kill, stall, or fail the worker executing a job
                      (``death``, ``stall``, ``error``)
``queue.dispatch``    deliver a drained job twice (``duplicate``)
``client.request``    fail an outgoing HTTP call (``timeout``,
                      ``connreset``)
``server.request``    fail an incoming HTTP call (``error`` → 5xx,
                      ``delay``, ``reset`` drops the connection)
``shard.route``       make the router skip the shard it chose and hand
                      the key to the next one in ring order
                      (``handoff``)
``shard.worker``      break a shard worker so the health loop sees it
                      (``death`` kills the worker process/backend
                      gracefully, ``kill9`` hard-kills it — SIGKILL, no
                      drain, no journal sync — ``unhealthy`` fails the
                      probe without killing)
``queue.journal``     break a write-ahead journal append (``torn-write``
                      commits only a prefix of the frame — replay must
                      truncate it; ``error`` raises mid-append)
==================  ====================================================

Determinism: every point draws from its own ``random.Random`` seeded
with ``(plan seed, site, rule index)``, and fires based only on its own
encounter counter — never on wall time, thread identity, or global RNG
state.  The same plan over the same request sequence injects the same
faults, which is what lets the chaos suite assert bit-identical
responses under fault load.

Zero overhead when off: injection sites guard on ``FAULTS.enabled``, a
plain attribute that is ``False`` unless a plan was armed via
``repro --faults PLAN.json``, the ``REPRO_FAULTS`` environment variable
(read at import, so process-pool workers inherit the plan), or
:meth:`FaultInjector.arm`.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field

__all__ = [
    "FAULTS",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultPoint",
    "InjectedFault",
    "load_plan",
]

#: Injection sites and the fault modes each accepts.
SITES: dict[str, tuple[str, ...]] = {
    "cache.disk.read": ("bitflip", "truncate", "garbage"),
    "cache.disk.write": ("partial", "error"),
    "queue.execute": ("death", "stall", "error"),
    "queue.dispatch": ("duplicate",),
    "client.request": ("timeout", "connreset"),
    "server.request": ("error", "delay", "reset"),
    "shard.route": ("handoff",),
    "shard.worker": ("death", "unhealthy", "kill9"),
    "queue.journal": ("torn-write", "error"),
}


class FaultError(ValueError):
    """A malformed fault plan (unknown site/mode, bad field types)."""


class InjectedFault(RuntimeError):
    """Raised by raising-type fault modes; carries its site and mode."""

    def __init__(self, site: str, mode: str):
        super().__init__(f"injected fault: {site}/{mode}")
        self.site = site
        self.mode = mode


@dataclass
class FaultPoint:
    """One injection rule: *what* fires *where*, *when*, and *how often*.

    Attributes:
        site: Injection site name (a :data:`SITES` key).
        mode: Fault mode, from the site's accepted set.
        prob: Per-encounter firing probability (1.0 = every encounter).
        times: Total injections this rule may perform (None = unbounded).
        after: Encounters to skip before the rule becomes eligible.
        match: Substring that must appear in the site's context label
            (cache key, job id, URL path, ...); empty matches everything.
        detail: Mode-specific knobs — ``bit`` (bitflip), ``keep``
            (truncate: bytes kept), ``stall_s``/``delay_s`` (stall/delay
            seconds), ``status`` (server error code).
    """

    site: str
    mode: str
    prob: float = 1.0
    times: int | None = None
    after: int = 0
    match: str = ""
    detail: dict = field(default_factory=dict)
    # Runtime accounting (not part of the schema).
    encounters: int = field(default=0, repr=False)
    injected: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(SITES)}"
            )
        if self.mode not in SITES[self.site]:
            raise FaultError(
                f"site {self.site!r} does not support mode {self.mode!r}; "
                f"expected one of {SITES[self.site]}"
            )
        if not 0.0 <= float(self.prob) <= 1.0:
            raise FaultError(f"prob must be in [0, 1], got {self.prob}")
        if self.times is not None and int(self.times) < 0:
            raise FaultError("times must be >= 0")
        if int(self.after) < 0:
            raise FaultError("after must be >= 0")
        if not isinstance(self.detail, dict):
            raise FaultError(
                "detail must be a JSON object of mode knobs, got "
                f"{type(self.detail).__name__}"
            )


@dataclass
class FaultPlan:
    """A seeded schedule of :class:`FaultPoint` rules."""

    seed: int = 0
    points: list[FaultPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._rngs = [
            random.Random(f"{self.seed}:{p.site}:{i}")
            for i, p in enumerate(self.points)
        ]

    @classmethod
    def from_dict(cls, data: dict) -> FaultPlan:
        if not isinstance(data, dict):
            raise FaultError("fault plan must be a JSON object")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultError(f"unknown fault plan keys {sorted(unknown)}")
        raw_points = data.get("faults", [])
        if not isinstance(raw_points, list):
            raise FaultError("'faults' must be a list of rules")
        points = []
        for raw in raw_points:
            if not isinstance(raw, dict):
                raise FaultError("each fault rule must be a JSON object")
            extra = set(raw) - {
                "site", "mode", "prob", "times", "after", "match", "detail"
            }
            if extra:
                raise FaultError(f"unknown fault rule keys {sorted(extra)}")
            try:
                points.append(FaultPoint(**raw))
            except TypeError as exc:
                raise FaultError(f"bad fault rule {raw!r}: {exc}") from exc
        return cls(seed=int(data.get("seed", 0)), points=points)

    def fire(self, site: str, label: str = "") -> FaultPoint | None:
        """The first rule that fires at *site* for *label*, if any.

        Firing consumes the rule's budget (``times``) and advances its
        encounter counter; rules that do not match the label do not see
        the encounter, so one site can carry independent schedules for
        different keys/jobs.
        """
        with self._lock:
            for i, point in enumerate(self.points):
                if point.site != site:
                    continue
                if point.match and point.match not in label:
                    continue
                point.encounters += 1
                if point.encounters <= point.after:
                    continue
                if point.times is not None and point.injected >= point.times:
                    continue
                if point.prob < 1.0 and self._rngs[i].random() >= point.prob:
                    continue
                point.injected += 1
                return point
        return None

    def stats(self) -> dict:
        """Per-rule encounter/injection counts (stable rule order)."""
        with self._lock:
            return {
                "seed": self.seed,
                "rules": [
                    {
                        "site": p.site,
                        "mode": p.mode,
                        "encounters": p.encounters,
                        "injected": p.injected,
                    }
                    for p in self.points
                ],
                "injected_total": sum(p.injected for p in self.points),
            }


def load_plan(path: str) -> FaultPlan:
    """Load and validate a fault plan from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FaultError(f"cannot read fault plan {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FaultError(f"fault plan {path!r} is not valid JSON: {exc}") from exc
    return FaultPlan.from_dict(data)


class FaultInjector:
    """Process-wide injection switchboard (:data:`FAULTS`).

    ``enabled`` is a plain attribute: hardened code guards every site
    with ``if FAULTS.enabled:``, so a production process with no plan
    armed pays one attribute read per site — nothing else.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.plan: FaultPlan | None = None

    def arm(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.enabled = True

    def disarm(self) -> None:
        self.plan = None
        self.enabled = False

    # ------------------------------------------------------------------
    def fire(self, site: str, label: str = "") -> FaultPoint | None:
        """Consult the armed plan at *site*; ``None`` = no fault."""
        if not self.enabled or self.plan is None:
            return None
        point = self.plan.fire(site, label)
        if point is not None:
            # Lazy import: obs must stay importable without resilience.
            from ..obs import TRACER

            # With tracing on, the firing lands on whatever request
            # context is active — traces show *which* request the chaos
            # plan hit, not just that it hit.
            TRACER.event(f"fault.{site}", mode=point.mode, label=label[:48])
        return point

    def corrupt(
        self, site: str, data: bytes, label: str = ""
    ) -> tuple[bytes, FaultPoint | None]:
        """Byte-corruption sites: returns (possibly corrupted) *data*.

        ``bitflip`` flips one deterministic bit, ``truncate`` keeps a
        prefix, ``garbage`` replaces the payload outright.
        """
        point = self.fire(site, label)
        if point is None or not data:
            return data, point
        if point.mode == "bitflip":
            index = int(point.detail.get("byte", len(data) // 2)) % len(data)
            bit = int(point.detail.get("bit", 3)) % 8
            corrupted = bytearray(data)
            corrupted[index] ^= 1 << bit
            return bytes(corrupted), point
        if point.mode == "truncate":
            keep = int(point.detail.get("keep", len(data) // 2))
            return data[: max(0, keep)], point
        if point.mode == "garbage":
            return b"\x00garbage\xff" * 3, point
        return data, point

    def stats(self) -> dict | None:
        """Plan accounting, or ``None`` while disarmed."""
        return self.plan.stats() if self.plan is not None else None


FAULTS = FaultInjector()


def _arm_from_env() -> None:
    """Arm from ``REPRO_FAULTS`` (a plan path) if set.

    Runs at import so process-pool workers — which inherit the
    environment but not the parent's Python state — rebuild the plan
    and inject on their side of the fork/spawn too.
    """
    path = os.environ.get("REPRO_FAULTS", "").strip()
    if path:
        FAULTS.arm(load_plan(path))


_arm_from_env()
