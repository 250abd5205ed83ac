"""The out-of-order cycle model.

Pipeline, per cycle:

1. **retire** — up to ``issue_width`` complete instructions leave the
   ROB head in program order, releasing displaced rename tags;
2. **select/issue** — the issue queue picks up to ``issue_width`` ready
   entries (oldest first) when the read stage is free; the group's
   operand reads arbitrate for per-bank read ports, each oversubscribed
   wave holding the read stage (and the group's results) one extra
   cycle;
3. **dispatch** — up to ``issue_width`` instructions enter ROB + issue
   queue in program order, renaming their definitions (or recording
   scoreboard hazards when rename is off); a full ROB/IQ or an empty
   tag pool stalls dispatch and is counted.

Conflicts therefore cost extra *read* cycles only where a bank's ports
are oversubscribed, instead of stalling a whole in-order bundle; how
much of the in-order conflict penalty survives at each (issue width x
read ports) point is the sweep's headline number.

The degenerate configuration — width 1, one read port, rename off —
issues exactly one instruction per read-stage occupancy, so its per-
block conflict and alignment counts are the same integers the in-order
:class:`~repro.sim.dsa.DsaMachine` computes (both apply the rule of
:mod:`repro.sim.hazards`), and :meth:`OooMachine.run` folds them through
the same :func:`~repro.sim.dynamic.executed_blocks` in the identical
accumulation order: the resulting ``conflict_penalty_cycles`` /
``alignment_penalty_cycles`` match the DSA model bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...banks.register_file import RegisterFile
from ...ir.block import BasicBlock
from ...ir.function import Function
from ...ir.instruction import OpKind
from ...ir.types import FP, RegClass
from ...obs import TRACER
from ..dynamic import Sites, executed_blocks
from ..hazards import instruction_hazards
from .config import OooConfig
from .issue_queue import IssueQueue
from .regfile import ReadPortArbiter
from .renamer import RegisterRenamer
from .rob import ReorderBuffer

#: Simulation-cycle guard per block: a block that has not fully retired
#: after this many cycles per instruction is deadlocked (e.g. a rename
#: pool smaller than one instruction's definition list).
_GUARD_CYCLES_PER_INSTR = 64
_GUARD_CYCLES_BASE = 4096


@dataclass
class OooCycleReport:
    """Cycle breakdown of one function on the out-of-order model."""

    cycles: float = 0.0
    instructions: int = 0
    conflict_penalty_cycles: float = 0.0
    alignment_penalty_cycles: float = 0.0
    memory_penalty_cycles: float = 0.0
    rob_stall_cycles: float = 0.0
    iq_stall_cycles: float = 0.0
    rename_stall_cycles: float = 0.0
    copy_instructions: int = 0
    spill_instructions: int = 0


@dataclass
class OooMachine:
    """Deterministic cycle-level out-of-order machine.

    Drop-in peer of :class:`~repro.sim.dsa.DsaMachine`: consumes an
    allocated :class:`Function` through the same ``AnalysisManager``
    path (``machine.run(function, am=am)``) and emits an
    :class:`OooCycleReport` the experiments harness folds like a DSA
    report.
    """

    register_file: RegisterFile
    regclass: RegClass | None = FP
    config: OooConfig = field(default_factory=OooConfig)

    def __post_init__(self):
        self._arbiter = ReadPortArbiter(self.register_file, self.config.read_ports)

    # ------------------------------------------------------------------
    def _phys_pool(self) -> int:
        if self.config.phys_regs is not None:
            return self.config.phys_regs
        return self.register_file.num_registers + 2 * self.config.rob_size

    # ------------------------------------------------------------------
    def simulate_block(
        self, block: BasicBlock, collect_sites: bool = False
    ) -> tuple[OooCycleReport, list[tuple[int, str, str, int]]]:
        """Cycle-accurate simulation of one execution of *block*.

        Returns the per-execution report plus, when *collect_sites* is
        set, ``(index, opcode, detail, events)`` hazard sites whose
        event counts sum to the report's conflict + alignment cycles.
        """
        cfg = self.config
        instrs = list(block)
        n = len(instrs)
        report = OooCycleReport(instructions=n)
        sites: list[tuple[int, str, str, int]] = []
        for instr in instrs:
            if instr.kind in (OpKind.LOAD, OpKind.STORE):
                report.memory_penalty_cycles += instr.latency - 1
                if instr.attrs.get("spill"):
                    report.spill_instructions += 1
            if instr.kind is OpKind.COPY:
                report.copy_instructions += 1
        if n == 0:
            return report, sites

        hazards = [
            instruction_hazards(i, self.register_file, self.regclass)
            for i in instrs
        ]
        rob = ReorderBuffer(cfg.rob_size)
        iq = IssueQueue(cfg.iq_size)
        renamer = RegisterRenamer(self._phys_pool()) if cfg.rename else None

        last_def: dict = {}       # reg -> youngest dispatched writer index
        readers: dict = {}        # reg -> dispatched reader indices
        writers: dict = {}        # reg -> dispatched writer indices
        producers: list = [None] * n   # RAW: indices this instr waits on
        waw_deps: list = [None] * n    # scoreboard-only ordering hazards
        war_deps: list = [None] * n
        displaced: list = [None] * n   # rename tags freed at retire
        read_done: list = [None] * n   # cycle the operand read completes
        ready_at: list = [None] * n    # cycle the result is available

        def ready(i: int, cycle: int) -> bool:
            for j in producers[i]:
                if ready_at[j] is None or ready_at[j] > cycle:
                    return False
            if renamer is None:
                for j in waw_deps[i]:
                    if ready_at[j] is None or ready_at[j] > cycle:
                        return False
                for j in war_deps[i]:
                    if read_done[j] is None or read_done[j] > cycle:
                        return False
            return True

        next_dispatch = 0
        retired = 0
        cycle = 0
        last_retire = 0
        read_free_at = 0
        guard = _GUARD_CYCLES_BASE + _GUARD_CYCLES_PER_INSTR * n
        while retired < n:
            if cycle > guard:
                raise RuntimeError(
                    f"OoO simulation deadlocked in block {block.label!r} "
                    f"after {cycle} cycles ({cfg.describe()}); is the "
                    f"rename pool large enough?"
                )
            # 1. retire (in order, up to the machine width)
            done = rob.retire(
                cfg.issue_width,
                lambda j: ready_at[j] is not None and ready_at[j] <= cycle,
            )
            for j in done:
                if renamer is not None:
                    for tag in displaced[j]:
                        renamer.release(tag)
                retired += 1
                last_retire = cycle
            # 2. select / read / execute
            if cycle >= read_free_at:
                group = iq.select(cfg.issue_width, lambda i: ready(i, cycle))
                if group:
                    arb = self._arbiter.arbitrate(
                        [(i, hazards[i].reads) for i in group]
                    )
                    report.conflict_penalty_cycles += arb.extra_cycles
                    if collect_sites:
                        for i, detail, events in arb.sites:
                            sites.append((i, instrs[i].opcode, detail, events))
                    read_free_at = cycle + 1 + arb.extra_cycles
                    for i in group:
                        read_done[i] = cycle + 1 + arb.extra_cycles
                        align = hazards[i].violations
                        report.alignment_penalty_cycles += align
                        if align and collect_sites:
                            # The misalignment is the last hazard site.
                            sites.append(
                                (i, instrs[i].opcode, *hazards[i].sites()[-1])
                            )
                        ready_at[i] = (
                            read_done[i] + (instrs[i].latency - 1) + align
                        )
            # 3. dispatch (program order, rename, enter ROB + IQ)
            slots = cfg.issue_width
            while next_dispatch < n and slots > 0:
                instr = instrs[next_dispatch]
                defs = instr.reg_defs()
                if not rob.has_space:
                    report.rob_stall_cycles += 1
                    break
                if not iq.has_space:
                    report.iq_stall_cycles += 1
                    break
                if renamer is not None and not renamer.can_allocate(len(defs)):
                    report.rename_stall_cycles += 1
                    break
                i = next_dispatch
                producers[i] = tuple(
                    dict.fromkeys(
                        last_def[u] for u in instr.reg_uses() if u in last_def
                    )
                )
                if renamer is None:
                    waw_deps[i] = tuple(
                        dict.fromkeys(j for d in defs for j in writers.get(d, ()))
                    )
                    war_deps[i] = tuple(
                        dict.fromkeys(j for d in defs for j in readers.get(d, ()))
                    )
                else:
                    displaced[i] = [renamer.rename_def(d)[1] for d in defs]
                for u in instr.reg_uses():
                    readers.setdefault(u, []).append(i)
                for d in defs:
                    writers.setdefault(d, []).append(i)
                    last_def[d] = i
                rob.push(i)
                iq.insert(i)
                next_dispatch += 1
                slots -= 1
            cycle += 1
        report.cycles = float(last_retire + 1)
        return report, sites

    # ------------------------------------------------------------------
    def run(self, function: Function, am=None) -> OooCycleReport:
        """Frequency-weighted cycle total over the whole function.

        Mirrors :meth:`DsaMachine.run` block for block — the same
        :func:`executed_blocks` fold, same accumulation order — so the
        degenerate configuration's penalty totals are bit-identical to
        the in-order model's.
        """
        with TRACER.span(
            "ooo-cycles", category="measure", function=function.name,
            config=self.config.describe(),
        ) as span:
            total = OooCycleReport()
            sites = Sites(function)
            for block, freq in executed_blocks(function, am):
                per_exec, hazard_sites = self.simulate_block(
                    block, collect_sites=sites.paths is not None
                )
                for index, opcode, detail, events in hazard_sites:
                    sites.add(block, index, opcode, detail, events * freq, freq)
                total.cycles += per_exec.cycles * freq
                total.instructions += per_exec.instructions
                total.conflict_penalty_cycles += (
                    per_exec.conflict_penalty_cycles * freq
                )
                total.alignment_penalty_cycles += (
                    per_exec.alignment_penalty_cycles * freq
                )
                total.memory_penalty_cycles += (
                    per_exec.memory_penalty_cycles * freq
                )
                total.rob_stall_cycles += per_exec.rob_stall_cycles * freq
                total.iq_stall_cycles += per_exec.iq_stall_cycles * freq
                total.rename_stall_cycles += per_exec.rename_stall_cycles * freq
                total.copy_instructions += round(per_exec.copy_instructions * freq)
                total.spill_instructions += round(
                    per_exec.spill_instructions * freq
                )
            # One span per pipeline stage with its aggregate counters, so
            # ``--trace`` shows where the model spent its cycles.
            for stage, args in (
                ("ooo-dispatch", {
                    "rob_stall_cycles": total.rob_stall_cycles,
                    "iq_stall_cycles": total.iq_stall_cycles,
                }),
                ("ooo-rename", {
                    "enabled": self.config.rename,
                    "rename_stall_cycles": total.rename_stall_cycles,
                }),
                ("ooo-issue", {
                    "issue_width": self.config.issue_width,
                    "instructions": total.instructions,
                }),
                ("ooo-read", {
                    "read_ports": self.config.read_ports,
                    "conflict_penalty_cycles": total.conflict_penalty_cycles,
                }),
                ("ooo-execute", {
                    "memory_penalty_cycles": total.memory_penalty_cycles,
                    "alignment_penalty_cycles": total.alignment_penalty_cycles,
                }),
                ("ooo-retire", {"cycles": total.cycles}),
            ):
                with TRACER.span(stage, category="measure",
                                 function=function.name, **args):
                    pass
            sites.emit()
            span.note(**{"sim.ooo_cycles": total.cycles})
        return total
