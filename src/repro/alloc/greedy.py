"""The greedy register allocator (miniature of LLVM's RAGreedy).

Priority-queue allocation over live intervals with the classic stage
cascade per interval:

1. **Assign** — first candidate physical register whose assigned intervals
   do not overlap.
2. **Evict** — find a candidate whose conflicting intervals all weigh less
   than the current one; evict and re-queue them.
3. **Split** — region-split around the hottest use loop
   (:mod:`repro.alloc.splitter`); children are re-queued.
4. **Spill** — decompose into tiny per-instruction intervals
   (:mod:`repro.alloc.spiller`) that are re-queued with infinite weight.

Bank strategies (non / bcr / bpc) plug in through
:class:`repro.alloc.base.AllocationPolicy`, which orders and filters the
candidate registers per virtual register — exactly the surface the paper
uses to integrate bank assignment into LLVM's allocator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from ..analysis.intervals import LiveInterval
from ..banks.register_file import RegisterFile
from ..ir import instruction as ins
from ..ir.function import Function
from ..ir.types import FP, PhysicalRegister, RegClass, VirtualRegister
from ..obs import TRACER
from ..passes import (
    CFG_ONLY,
    AnalysisManager,
    ConflictCostAnalysis,
    FlatIRAnalysis,
    LiveIntervalsAnalysis,
    LoopInfoAnalysis,
)
from .base import AllocationError, AllocationPolicy, AllocationResult, NaturalOrderPolicy, PhysRegState
from .spiller import SpillPlan, materialize, spill_interval
from .splitter import CopyAction, try_region_split


@dataclass
class _QueueEntry:
    priority: tuple
    interval: LiveInterval

    def __lt__(self, other: "_QueueEntry") -> bool:
        return self.priority < other.priority


@dataclass
class GreedyAllocator:
    """Configurable greedy allocator for one bankable register class.

    Attributes:
        register_file: The target banked register file.
        policy: Candidate ordering/filtering strategy (default: "non").
        regclass: The register class being allocated.
        enable_split: Whether stage 3 (region splitting) is available.
        max_evictions_per_vreg: Bound on evict-requeue cycles per register;
            beyond it the interval must split or spill (loop safety).
    """

    register_file: RegisterFile
    policy: AllocationPolicy | None = None
    regclass: RegClass = FP
    enable_split: bool = True
    max_evictions_per_vreg: int = 4

    # Populated per-run (the allocator object is reusable across functions).
    function: Function = field(default=None, repr=False)
    #: The analysis manager of the current run; policies may consume
    #: cached analyses through it (see :class:`repro.prescount.bcr.BcrPolicy`).
    analyses: AnalysisManager | None = field(default=None, repr=False)
    _assignment: dict[VirtualRegister, PhysicalRegister] = field(default_factory=dict, repr=False)
    _preg_state: dict[PhysicalRegister, PhysRegState] = field(default_factory=dict, repr=False)
    _eviction_count: dict[VirtualRegister, int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # AllocatorContext protocol (what policies may observe)
    # ------------------------------------------------------------------
    def current_assignment(self) -> dict[VirtualRegister, PhysicalRegister]:
        return self._assignment

    # ------------------------------------------------------------------
    def run(
        self,
        function: Function,
        *,
        clone: bool = True,
        am: AnalysisManager | None = None,
    ) -> AllocationResult:
        """Allocate *function*; returns the rewritten function and metrics.

        With ``clone=True`` (default) the input function is untouched and
        the result holds a rewritten deep copy, so several methods can be
        compared on the same source IR.

        All analyses come from *am* (one is created when absent or when it
        is bound to a different function than the one being allocated), so
        a pipeline-supplied manager turns the CFG/loop/interval/cost
        builds below into cache hits.  Allocation rewrites operands and
        inserts spill/split code but never touches the block graph, so the
        manager keeps its CFG-level analyses afterwards.
        """
        if clone:
            function = function.clone()
        if am is None or am.function is not function:
            am = AnalysisManager(function)
        self.function = function
        self.analyses = am
        policy = self.policy if self.policy is not None else NaturalOrderPolicy()

        loop_info = am.get(LoopInfoAnalysis)
        # The lowering the intervals were built from: their slots index it.
        flat = am.get(FlatIRAnalysis)
        live = am.get(LiveIntervalsAnalysis)
        cost_model = am.get(ConflictCostAnalysis, regclass=self.regclass)

        self._assignment = {}
        self._eviction_count = {}
        self._preg_state = {
            preg: PhysRegState(preg) for preg in self.register_file.registers()
        }
        all_registers = self.register_file.registers()

        queue: list[_QueueEntry] = []
        for interval in live.vreg_intervals(self.regclass):
            vreg = interval.reg
            interval.weight = cost_model.spill_weight(vreg, interval.size)
            heapq.heappush(queue, _QueueEntry(self._priority(interval), interval))

        policy.setup(self)

        result = AllocationResult(function)
        spill_plan = SpillPlan()
        split_rewrites: dict[int, dict[VirtualRegister, VirtualRegister]] = {}
        split_copies: list[CopyAction] = []
        split_generated: set[VirtualRegister] = set()
        split_parent: dict[VirtualRegister, VirtualRegister] = {}

        retired: set[VirtualRegister] = set()
        while queue:
            interval = heapq.heappop(queue).interval
            vreg = interval.reg
            if self._assignment.get(vreg) is not None or vreg in retired:
                continue  # stale entry (re-pushed and already handled)
            is_tiny = math.isinf(interval.weight)

            candidates = list(policy.order(vreg, interval))
            if not candidates:
                candidates = all_registers

            preg = self._try_assign(interval, candidates)
            if preg is None and self._can_evict(vreg):
                preg = self._try_evict(interval, candidates, queue, result)
            if preg is None and is_tiny and len(candidates) < len(all_registers):
                # Reloads/stores must land somewhere; lift policy limits.
                preg = self._try_assign(interval, all_registers)
                if preg is None:
                    preg = self._try_evict(interval, all_registers, queue, result)
            if preg is not None:
                self._assign(interval, preg)
                continue

            if (
                self.enable_split
                and not is_tiny
                and vreg not in split_generated
            ):
                split = try_region_split(function, flat, loop_info, interval)
                if split is not None:
                    for instr_id, mapping in split.rewrites.items():
                        split_rewrites.setdefault(instr_id, {}).update(mapping)
                    split_copies.extend(split.copies)
                    for child in split.children:
                        split_generated.add(child.reg)
                        split_parent[child.reg] = split_parent.get(vreg, vreg)
                        heapq.heappush(
                            queue, _QueueEntry(self._priority(child), child)
                        )
                    self._notify_split(policy, vreg, split)
                    retired.add(vreg)
                    continue

            if is_tiny:
                raise AllocationError(
                    f"{function.name}: cannot place spill interval {interval!r}; "
                    f"register file too small for one instruction's operands"
                )
            origin = split_parent.get(vreg, vreg)
            if TRACER.wants("explain"):
                TRACER.fact(
                    "decision",
                    function=function.name,
                    vreg=vreg.name,
                    step="spill",
                    path="",
                    chosen=-1,
                    detail={
                        "weight": interval.weight,
                        "span": interval.span,
                        "origin": origin.name,
                        "evictions_used": self._eviction_count.get(vreg, 0),
                    },
                )
            result.spilled.add(origin)
            retired.add(vreg)
            # All split siblings of one original vreg share a single stack
            # slot: they hold the same logical value, and a boundary copy
            # between two spilled siblings then needs no code at all.
            shared_slot = spill_plan.slot_of_vreg.get(origin)
            if shared_slot is None:
                shared_slot = spill_plan.new_slot()
                spill_plan.slot_of_vreg[origin] = shared_slot
            spill_plan.slot_of_vreg[vreg] = shared_slot
            for tiny in spill_interval(function, flat, interval, spill_plan):
                heapq.heappush(queue, _QueueEntry(self._priority(tiny), tiny))

        result.assignment = dict(self._assignment)
        with TRACER.span("materialize", category="stage", function=function.name):
            result.spill_instructions += materialize(
                function, spill_plan, self._assignment, split_rewrites
            )
            result.copies_inserted += self._insert_split_copies(
                function, split_copies, spill_plan, result
            )
        if TRACER.enabled:
            TRACER.note(**{
                "alloc.spilled_vregs": len(result.spilled),
                "alloc.spill_instructions": result.spill_instructions,
                "alloc.evictions": result.evictions,
                "alloc.copies_inserted": result.copies_inserted,
                "alloc.split_children": len(split_generated),
                "alloc.max_pressure": live.max_pressure(self.regclass),
            })
        # Materialization rewrote operands and inserted spill/split code;
        # block labels, terminators, and loop structure are untouched.
        am.invalidate(CFG_ONLY)
        return result

    # ------------------------------------------------------------------
    # Queue and stage helpers
    # ------------------------------------------------------------------
    def _priority(self, interval: LiveInterval) -> tuple:
        """Heap key: tiny intervals first, then larger spans first."""
        tiny = 0 if math.isinf(interval.weight) else 1
        reg = interval.reg
        vid = reg.vid if isinstance(reg, VirtualRegister) else -1
        return (tiny, -interval.span, vid)

    def _can_evict(self, vreg: VirtualRegister) -> bool:
        return self._eviction_count.get(vreg, 0) < self.max_evictions_per_vreg

    def _try_assign(
        self, interval: LiveInterval, candidates: list[PhysicalRegister]
    ) -> PhysicalRegister | None:
        for preg in candidates:
            if self._preg_state[preg].is_free_for(interval):
                return preg
        return None

    def _try_evict(
        self,
        interval: LiveInterval,
        candidates: list[PhysicalRegister],
        queue: list,
        result: AllocationResult,
    ) -> PhysicalRegister | None:
        """Find the candidate whose conflicts are cheapest to evict."""
        best_preg = None
        best_score = None
        for preg in candidates:
            conflicts = self._preg_state[preg].conflicts_with(interval)
            if any(c.weight >= interval.weight for c in conflicts):
                continue
            score = (max(c.weight for c in conflicts), len(conflicts))
            if best_score is None or score < best_score:
                best_preg, best_score = preg, score
        if best_preg is None:
            return None
        for conflict in list(self._preg_state[best_preg].conflicts_with(interval)):
            self._unassign(conflict, best_preg)
            victim = conflict.reg
            self._eviction_count[victim] = self._eviction_count.get(victim, 0) + 1
            result.evictions += 1
            heapq.heappush(queue, _QueueEntry(self._priority(conflict), conflict))
        return best_preg

    def _assign(self, interval: LiveInterval, preg: PhysicalRegister) -> None:
        self._preg_state[preg].add(interval)
        self._assignment[interval.reg] = preg

    def _unassign(self, interval: LiveInterval, preg: PhysicalRegister) -> None:
        self._preg_state[preg].remove(interval)
        del self._assignment[interval.reg]

    def _notify_split(self, policy: AllocationPolicy, parent: VirtualRegister, split) -> None:
        """Tell the policy about split-generated registers so it can
        propagate bank/subgroup decisions (Algorithm 2's first branch)."""
        hook = getattr(policy, "on_split", None)
        if hook is not None:
            hook(parent, [child.reg for child in split.children])

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _insert_split_copies(
        self,
        function: Function,
        split_copies: list[CopyAction],
        spill_plan: SpillPlan,
        result: AllocationResult,
    ) -> int:
        """Insert boundary copies from region splits; spilled endpoints
        degrade into spill loads/stores against the parent's stack slot."""
        inserted = 0
        for action in split_copies:
            dst = self._assignment.get(action.dst)
            src = self._assignment.get(action.src)
            block = function.block(action.block_label)
            index = 0
            if action.position == "end":
                index = len(block.instructions)
                if block.terminator is not None:
                    index -= 1
            if dst is not None and src is not None:
                if dst == src:
                    continue  # same register: coalesced for free
                block.insert(index, ins.copy(dst, src, split_copy=True))
                inserted += 1
            elif dst is not None and src is None:
                slot = spill_plan.slot_of_vreg.get(action.src)
                block.insert(index, ins.load(dst, spill_slot=slot, spill=True))
                result.spill_instructions += 1
            elif dst is None and src is not None:
                slot = spill_plan.slot_of_vreg.get(action.dst)
                block.insert(index, ins.store(src, spill_slot=slot, spill=True))
                result.spill_instructions += 1
            # Both spilled: value already in memory; nothing to emit.
        return inserted
