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
  the trip product).  :func:`executed_blocks` is the block fold over
  them that every frequency-weighted model shares (the DSA and OoO cycle
  models, energy, and :func:`estimate_dynamic_conflicts`, which on
  branch-free kernels agrees with the interpreter exactly and is what the
  experiment harness uses for large suites).

Every model counts hazards with the one rule of :mod:`repro.sim.hazards`
and reports per-site attribution to the profile view through
:class:`Sites`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..banks.register_file import RegisterFile
from ..ir.block import BasicBlock
from ..ir.cfg import CFG
from ..ir.function import Function
from ..ir.instruction import OpKind
from ..ir.types import FP, RegClass
from ..obs import TRACER, loop_paths
from .hazards import instruction_hazards


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


@dataclass
class DynamicSimulator:
    """Interprets an allocated function's control flow, then counts the
    conflicts of every executed instruction instance.

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
        stats = DynamicStats()
        sites = Sites(function)
        # The walk only follows control flow; the rule is then folded over
        # each executed block once, weighted by its execution count.
        for label, count in self._walk(function, stats).items():
            block = function.block(label)
            for index, instr in enumerate(block):
                hazards = instruction_hazards(
                    instr, self.register_file, self.regclass
                )
                if instr.is_conflict_relevant(self.regclass):
                    stats.executed_conflict_relevant += count
                stats.dynamic_conflicts += hazards.conflicts * count
                stats.dynamic_subgroup_violations += hazards.violations * count
                if hazards.conflicts or hazards.violations:
                    stats.conflicting_sites += hazards.conflicts + hazards.violations
                    if sites.paths is not None:
                        for detail, events in hazards.sites():
                            sites.add(block, index, instr.opcode, detail,
                                      float(events * count), float(count))
                if instr.kind is OpKind.RET:
                    break
        sites.emit()
        return stats

    def _walk(self, function: Function, stats: DynamicStats) -> dict[str, int]:
        """Execute *function*'s control flow, counting executed
        instructions into *stats*; returns each executed block's
        execution count by label, in first-execution order."""
        rng = random.Random(self.seed)
        visits: dict[str, int] = {}
        # Loop latch bookkeeping: remaining iterations per header label.
        remaining: dict[str, int] = {}
        block = function.entry
        while block is not None:
            if stats.executed_instructions >= self.max_instructions:
                stats.truncated = True
                break
            visits[block.label] = visits.get(block.label, 0) + 1
            next_label = None
            for instr in block:
                stats.executed_instructions += 1
                if instr.kind is OpKind.JUMP:
                    next_label = instr.attrs["target"]
                elif instr.kind is OpKind.RET:
                    return visits
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
        return visits


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


def executed_blocks(function: Function, am=None) -> list[tuple[BasicBlock, float]]:
    """``(block, expected frequency)`` of every block expected to run, in
    layout order: the fold every frequency-weighted model sums over.

    With *am* given, the flow system is solved over the cached CFG (valid
    after allocation, which preserves block structure)."""
    cfg = None
    if am is not None:
        from ..passes import CFGAnalysis

        cfg = am.get(CFGAnalysis)
    frequencies = expected_block_frequencies(function, cfg)
    return [
        (block, freq)
        for block in function.blocks
        if (freq := frequencies.get(block.label, 0.0)) > 0.0
    ]


class Sites:
    """The profile view's ``sites`` rows of one function's measurement.

    Inert unless the view is on (:attr:`paths` is then ``None``).  A row
    is ``(function, loops, block, index, opcode, label, cycles,
    conflicts, executions)``; every hazard event of the rule stalls one
    cycle, so its cycles and conflicts are the same number.
    """

    def __init__(self, function: Function):
        self.name = function.name
        self.paths = loop_paths(function) if TRACER.wants("profile") else None
        self.rows: list[tuple] = []

    def add(self, block: BasicBlock, index: int, opcode: str, label: str,
            events: float, executions: float) -> None:
        self.rows.append((
            self.name, self.paths.get(block.label, ()), block.label, index,
            opcode, label, events, events, executions,
        ))

    def add_block(self, block: BasicBlock, freq: float,
                  register_file: RegisterFile, regclass: RegClass | None) -> None:
        """Charge each hazard of *block*'s instructions ``events * freq``."""
        if self.paths is None:
            return
        for index, instr in enumerate(block):
            hazards = instruction_hazards(instr, register_file, regclass)
            for label, events in hazards.sites():
                self.add(block, index, instr.opcode, label, events * freq, freq)

    def emit(self) -> None:
        if self.rows:
            TRACER.fact("sites", rows=self.rows)


def estimate_dynamic_conflicts(
    function: Function,
    register_file: RegisterFile,
    regclass: RegClass | None = FP,
    am=None,
) -> DynamicStats:
    """Expected dynamic counts: per-block conflict degrees folded through
    :func:`executed_blocks`.  Counts are rounded to integers at the block
    level so aggregates remain comparable to interpreter runs."""
    with TRACER.span(
        "dynamic-estimate", category="measure", function=function.name
    ) as span:
        stats = DynamicStats()
        sites = Sites(function)
        for block, freq in executed_blocks(function, am):
            # Expected conflict instances (one stall cycle each) are
            # attributed to their sites, frequency-weighted.
            sites.add_block(block, freq, register_file, regclass)
            block_conflicts = 0
            block_violations = 0
            block_relevant = 0
            for instr in block:
                hazards = instruction_hazards(instr, register_file, regclass)
                block_conflicts += hazards.conflicts
                block_violations += hazards.violations
                if instr.is_conflict_relevant(regclass):
                    block_relevant += 1
            stats.executed_instructions += round(len(block.instructions) * freq)
            stats.executed_conflict_relevant += round(block_relevant * freq)
            stats.dynamic_conflicts += round(block_conflicts * freq)
            stats.dynamic_subgroup_violations += round(block_violations * freq)
            # Executed-site estimate: a site in a block with expected frequency
            # f executes at least once with probability ~min(1, f).
            stats.conflicting_sites += (block_conflicts + block_violations) * min(
                1.0, freq
            )
        sites.emit()
        span.note(**{
            "sim.dynamic_conflicts": stats.dynamic_conflicts,
            "sim.dynamic_subgroup_violations":
                stats.dynamic_subgroup_violations,
        })
    return stats
