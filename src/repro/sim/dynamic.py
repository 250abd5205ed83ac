"""Dynamic bank-conflict measurement — the QEMU-trace substitute.

The paper runs riscv-64 executables under QEMU and counts executed
instances of conflicting instructions (Platform-RV Setting #2).  Our IR
carries everything needed to do the same without a foreign ISA:

* :class:`DynamicSimulator` — an interpreter that walks the CFG.  Counted
  loops (builder-generated latches) iterate exactly their trip count;
  data-dependent branches draw seeded pseudo-random decisions from their
  ``taken_prob``, standing in for input-dependent behaviour.  Every
  executed instruction contributes its conflict degree.

* :func:`expected_block_frequencies` — a closed-form alternative: solving
  the flow equations ``f(b) = [b == entry] + sum_p f(p) * prob(p -> b)``
  gives expected execution counts (builder latches encode
  ``taken_prob = (t-1)/t``, so a loop body's expected frequency is exactly
  the trip product).  :func:`estimate_dynamic_conflicts` folds the
  per-block conflict degrees through these frequencies; on branch-free
  kernels it agrees with the interpreter exactly, and the experiment
  harness uses it for large suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..banks.register_file import BankSubgroupRegisterFile, RegisterFile
from ..ir.cfg import CFG
from ..ir.function import Function
from ..ir.instruction import OpKind
from ..ir.types import FP, RegClass
from .static_stats import (
    instruction_bank_conflicts,
    instruction_conflict_details,
    instruction_subgroup_violations,
)


@dataclass
class DynamicStats:
    """Runtime counts from one simulated execution.

    Two conflict measures coexist:

    * ``dynamic_conflicts`` — per-execution *instances* (a conflicting
      instruction in a 1000-trip loop contributes 1000);
    * ``conflicting_sites`` — distinct conflicting instructions that
      executed at least once.  This matches the paper's QEMU-trace
      methodology, where Table IV's dynamic counts sit *below* the static
      ones because unexecuted code contributes nothing.
    """

    executed_instructions: int = 0
    executed_conflict_relevant: int = 0
    dynamic_conflicts: int = 0
    dynamic_subgroup_violations: int = 0
    conflicting_sites: float = 0.0
    truncated: bool = False

    @property
    def total_hazards(self) -> int:
        return self.dynamic_conflicts + self.dynamic_subgroup_violations

    def merge(self, other: "DynamicStats") -> "DynamicStats":
        return DynamicStats(
            executed_instructions=self.executed_instructions + other.executed_instructions,
            executed_conflict_relevant=(
                self.executed_conflict_relevant + other.executed_conflict_relevant
            ),
            dynamic_conflicts=self.dynamic_conflicts + other.dynamic_conflicts,
            dynamic_subgroup_violations=(
                self.dynamic_subgroup_violations + other.dynamic_subgroup_violations
            ),
            conflicting_sites=self.conflicting_sites + other.conflicting_sites,
            truncated=self.truncated or other.truncated,
        )


@dataclass
class DynamicSimulator:
    """Interprets an allocated function, counting conflicts as they run.

    Attributes:
        register_file: Decodes register banks (and subgroups on the DSA).
        seed: Seed for data-dependent branch decisions.
        max_instructions: Execution budget; exceeding it sets
            ``truncated`` on the result instead of hanging.
    """

    register_file: RegisterFile
    regclass: RegClass | None = FP
    seed: int = 0
    max_instructions: int = 2_000_000

    def run(self, function: Function) -> DynamicStats:
        from ..obs import TRACER

        rng = random.Random(self.seed)
        is_dsa = isinstance(self.register_file, BankSubgroupRegisterFile)
        stats = DynamicStats()

        # Per-block conflict degree cache: the decode is loop-invariant.
        conflict_cache: dict[int, tuple[int, int, bool]] = {}

        def decode(instr) -> tuple[int, int, bool]:
            key = id(instr)
            cached = conflict_cache.get(key)
            if cached is None:
                conflicts = instruction_bank_conflicts(
                    instr, self.register_file, self.regclass
                )
                violations = (
                    instruction_subgroup_violations(
                        instr, self.register_file, self.regclass
                    )
                    if is_dsa
                    else 0
                )
                relevant = instr.is_conflict_relevant(self.regclass)
                cached = (conflicts, violations, relevant)
                conflict_cache[key] = cached
            return cached

        # Hotspot attribution (only for the profile view): executed
        # instances accumulate in run-local dicts, emitted as one event.
        profiling = TRACER.wants("profile")
        site_keys: dict[int, list] = {}
        local_counts: dict[int, tuple[float, float]] = {}
        paths: dict[str, tuple[str, ...]] = {}
        if profiling:
            from ..obs import loop_paths

            paths = loop_paths(function)

        def attribute(block, index, instr) -> None:
            keys = site_keys.get(id(instr))
            if keys is None:
                loops = paths.get(block.label, ())
                keys = site_keys[id(instr)] = [
                    (
                        (function.name, loops, block.label, index,
                         instr.opcode, detail),
                        events,
                    )
                    for detail, events in instruction_conflict_details(
                        instr, self.register_file, self.regclass
                    )
                ]
            for key, events in keys:
                hazards, executions = local_counts.get(key, (0.0, 0.0))
                local_counts[key] = (hazards + events, executions + 1.0)

        def flush() -> None:
            if local_counts:
                TRACER.fact("sites", rows=[
                    (*key, hazards, hazards, executions)
                    for key, (hazards, executions) in local_counts.items()
                ])

        # Loop latch bookkeeping: remaining iterations per header label.
        remaining: dict[str, int] = {}
        executed_sites: set[int] = set()
        block = function.entry
        while block is not None:
            if stats.executed_instructions >= self.max_instructions:
                stats.truncated = True
                break
            next_label = None
            for index, instr in enumerate(block):
                stats.executed_instructions += 1
                conflicts, violations, relevant = decode(instr)
                if relevant:
                    stats.executed_conflict_relevant += 1
                stats.dynamic_conflicts += conflicts
                stats.dynamic_subgroup_violations += violations
                if profiling and (conflicts or violations):
                    attribute(block, index, instr)
                if (conflicts or violations) and id(instr) not in executed_sites:
                    executed_sites.add(id(instr))
                    stats.conflicting_sites += conflicts + violations
                if instr.kind is OpKind.JUMP:
                    next_label = instr.attrs["target"]
                elif instr.kind is OpKind.RET:
                    flush()
                    return stats
                elif instr.kind is OpKind.BRANCH:
                    target = instr.attrs["target"]
                    if instr.attrs.get("loop_latch"):
                        header = function.block(target)
                        trips = int(header.attrs.get("trip_count", 1))
                        left = remaining.setdefault(target, trips - 1)
                        if left > 0:
                            remaining[target] = left - 1
                            next_label = target
                        else:
                            remaining.pop(target, None)  # reset for re-entry
                            next_label = function.next_label(block)
                    else:
                        prob = float(instr.attrs.get("taken_prob", 0.5))
                        if rng.random() < prob:
                            next_label = target
                        else:
                            next_label = function.next_label(block)
            if next_label is None:
                next_label = function.next_label(block)
            block = function.block(next_label) if next_label is not None else None
        flush()
        return stats


def expected_block_frequencies(function: Function, cfg: CFG | None = None) -> dict[str, float]:
    """Expected execution count per block via the flow linear system.

    Solves ``(I - P^T) f = e`` where ``P[i][j]`` is the probability of
    edge i->j and ``e`` marks the entry.  Builder-generated latch
    probabilities make loop frequencies come out as exact trip products.
    """
    if cfg is None:
        cfg = CFG.build(function)
    labels = [b.label for b in function.blocks if cfg.is_reachable(b.label)]
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    transition = np.zeros((n, n))
    for label in labels:
        block = function.block(label)
        term = block.terminator
        succs = cfg.succs[label]
        if not succs:
            continue
        if term is not None and term.kind is OpKind.BRANCH:
            prob = float(term.attrs.get("taken_prob", 0.5))
            target = term.attrs["target"]
            fallthrough = function.next_label(block)
            transition[index[label]][index[target]] += prob
            if fallthrough is not None and fallthrough in index:
                transition[index[label]][index[fallthrough]] += 1.0 - prob
        else:
            for succ in succs:
                transition[index[label]][index[succ]] += 1.0 / len(succs)
    entry = np.zeros(n)
    entry[index[function.entry.label]] = 1.0
    # f = e + P^T f  =>  (I - P^T) f = e
    matrix = np.eye(n) - transition.T
    try:
        freqs = np.linalg.solve(matrix, entry)
    except np.linalg.LinAlgError:
        # Singular system (e.g. an infinite loop with taken_prob == 1):
        # fall back to least squares.
        freqs, *__ = np.linalg.lstsq(matrix, entry, rcond=None)
    return {label: max(0.0, float(freqs[index[label]])) for label in labels}


def estimate_dynamic_conflicts(
    function: Function,
    register_file: RegisterFile,
    regclass: RegClass | None = FP,
    frequencies: dict[str, float] | None = None,
    am=None,
) -> DynamicStats:
    """Expected dynamic counts: per-block conflict degrees folded through
    :func:`expected_block_frequencies`.  Counts are rounded to integers at
    the block level so aggregates remain comparable to interpreter runs.

    With *am* given, the flow system is solved over the cached CFG (valid
    after allocation, which preserves block structure)."""
    from ..obs import TRACER

    with TRACER.span(
        "dynamic-estimate", category="measure", function=function.name
    ) as span:
        if frequencies is None:
            cfg = None
            if am is not None:
                from ..passes import CFGAnalysis

                cfg = am.get(CFGAnalysis)
            frequencies = expected_block_frequencies(function, cfg)
        is_dsa = isinstance(register_file, BankSubgroupRegisterFile)
        stats = DynamicStats()
        paths = rows = None
        if TRACER.wants("profile"):
            from ..obs import loop_paths

            paths, rows = loop_paths(function), []
        for block in function.blocks:
            freq = frequencies.get(block.label, 0.0)
            if freq <= 0.0:
                continue
            block_conflicts = 0
            block_violations = 0
            block_relevant = 0
            for index, instr in enumerate(block):
                block_conflicts += instruction_bank_conflicts(
                    instr, register_file, regclass
                )
                if is_dsa:
                    block_violations += instruction_subgroup_violations(
                        instr, register_file, regclass
                    )
                if instr.is_conflict_relevant(regclass):
                    block_relevant += 1
                if paths is not None:
                    # Attribute expected conflict instances (one stall
                    # cycle each) to the site, frequency-weighted.
                    for detail, events in instruction_conflict_details(
                        instr, register_file, regclass
                    ):
                        rows.append((
                            function.name, paths.get(block.label, ()),
                            block.label, index, instr.opcode, detail,
                            events * freq, events * freq, freq,
                        ))
            stats.executed_instructions += round(len(block.instructions) * freq)
            stats.executed_conflict_relevant += round(block_relevant * freq)
            stats.dynamic_conflicts += round(block_conflicts * freq)
            stats.dynamic_subgroup_violations += round(block_violations * freq)
            # Executed-site estimate: a site in a block with expected frequency
            # f executes at least once with probability ~min(1, f).
            stats.conflicting_sites += (block_conflicts + block_violations) * min(
                1.0, freq
            )
        if rows:
            TRACER.fact("sites", rows=rows)
        span.note(**{
            "sim.dynamic_conflicts": stats.dynamic_conflicts,
            "sim.dynamic_subgroup_violations":
                stats.dynamic_subgroup_violations,
        })
    return stats
