"""Machine instructions.

An instruction has an opcode, a tuple of *defs* (registers written) and a
tuple of *uses* (operands read).  The conflict model of the paper is purely
operand-positional: an instruction is *conflict-relevant* when it reads two
or more distinct registers of a bankable class in the same cycle
(see §II-A), so no further machine detail is required here.

Opcodes are grouped into small families (arithmetic, memory, control, copy)
via :class:`OpKind`; simulators and analyses dispatch on the family, never
on individual opcode strings, so workload generators are free to use any
mnemonic they like.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator

from .types import (
    Immediate,
    Operand,
    PhysicalRegister,
    Register,
    RegClass,
    VirtualRegister,
    is_reg,
)


class OpKind(enum.Enum):
    """Instruction family used by analyses and simulators."""

    ARITH = "arith"      # register-to-register compute (fadd, fmul, ...)
    COPY = "copy"        # register copy (mov)
    LOAD = "load"        # memory -> register
    STORE = "store"      # register -> memory
    LOADIMM = "loadimm"  # constant materialization
    BRANCH = "branch"    # conditional branch (falls through or jumps)
    JUMP = "jump"        # unconditional jump
    RET = "ret"          # function return
    CALL = "call"        # call (clobbers nothing in this model; a barrier)
    NOP = "nop"


#: Default opcode name for each kind, used by the builder's helpers.
_DEFAULT_OPCODE = {
    OpKind.COPY: "mov",
    OpKind.LOAD: "load",
    OpKind.STORE: "store",
    OpKind.LOADIMM: "li",
    OpKind.BRANCH: "br",
    OpKind.JUMP: "jmp",
    OpKind.RET: "ret",
    OpKind.CALL: "call",
    OpKind.NOP: "nop",
}

#: Per-kind base latency in cycles, used by the DSA cycle model.
BASE_LATENCY = {
    OpKind.ARITH: 1,
    OpKind.COPY: 1,
    OpKind.LOAD: 2,
    OpKind.STORE: 2,
    OpKind.LOADIMM: 1,
    OpKind.BRANCH: 1,
    OpKind.JUMP: 1,
    OpKind.RET: 1,
    OpKind.CALL: 1,
    OpKind.NOP: 1,
}


@dataclass
class Instruction:
    """One machine instruction.

    Attributes:
        opcode: Mnemonic, e.g. ``"fmul"``.  Free-form within a kind.
        kind: The :class:`OpKind` family.
        defs: Registers written by the instruction.
        uses: Operands read (registers and immediates), in operand order.
        attrs: Free-form metadata.  Recognized keys include
            ``"taken_prob"`` on branches (dynamic simulator),
            ``"spill_slot"`` on spill loads/stores, and
            ``"split_copy"``/``"sdg_copy"`` marking compiler-inserted copies.
    """

    opcode: str
    kind: OpKind
    defs: tuple[Register, ...] = ()
    uses: tuple[Operand, ...] = ()
    attrs: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Operand access helpers
    # ------------------------------------------------------------------
    def reg_uses(self) -> tuple[Register, ...]:
        """All register operands read, in operand order (with duplicates)."""
        return tuple(u for u in self.uses if is_reg(u))

    def reg_defs(self) -> tuple[Register, ...]:
        """All registers written."""
        return self.defs

    def regs(self) -> Iterator[Register]:
        """All registers referenced (uses then defs)."""
        yield from self.reg_uses()
        yield from self.defs

    def vreg_uses(self) -> tuple[VirtualRegister, ...]:
        return tuple(u for u in self.uses if isinstance(u, VirtualRegister))

    def vreg_defs(self) -> tuple[VirtualRegister, ...]:
        return tuple(d for d in self.defs if isinstance(d, VirtualRegister))

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.kind in (OpKind.BRANCH, OpKind.JUMP, OpKind.RET)

    @property
    def is_copy(self) -> bool:
        return self.kind is OpKind.COPY

    @property
    def latency(self) -> int:
        return self.attrs.get("latency", BASE_LATENCY[self.kind])

    def memo(self) -> dict:
        """Results of pure functions of the operands, made on first use.

        Operands are immutable (``uses`` is a tuple and rewrites go
        through :meth:`rewrite`, which returns a fresh copy), so such
        results never go stale.  :meth:`bankable_reads` keeps its scans
        here by register class, and the simulators keep the bank rule's
        result (:func:`repro.sim.hazards.instruction_hazards`) by
        ``(register file, register class)``.
        """
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = self.__dict__["_memo"] = {}
        return memo

    def bankable_reads(self, regclass: RegClass | None = None) -> tuple[Register, ...]:
        """Distinct bankable register operands read by this instruction.

        These are the operands that compete for register-file read ports;
        two of them decoding to the same bank is a bank conflict (§II-A).
        Operand *order* is preserved; duplicates (the same register read
        twice, e.g. ``fmul a, a``) are collapsed because a repeated read of
        one register is served by a single port access in the modeled
        hardware.
        """
        # The innermost loop of every conflict-cost fold, so a memo that
        # exists is read without the call.
        cache = self.__dict__.get("_memo") or self.memo()
        hit = cache.get(regclass)
        if hit is not None:
            return hit
        seen: list[Register] = []
        for use in self.uses:
            if not is_reg(use):
                continue
            if not use.regclass.bankable:
                continue
            if regclass is not None and use.regclass != regclass:
                continue
            if use not in seen:
                seen.append(use)
        result = tuple(seen)
        cache[regclass] = result
        return result

    def is_conflict_relevant(self, regclass: RegClass | None = None) -> bool:
        """True when the instruction reads >= 2 distinct bankable registers.

        Matches the paper's *conflict-relevant instruction* definition:
        only such instructions can ever trigger a bank conflict.
        Control-flow and memory instructions read at most one bankable
        operand per port in our machine model and are excluded by
        construction of their use lists.
        """
        return self.kind is OpKind.ARITH and len(self.bankable_reads(regclass)) >= 2

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def rewrite(self, mapping: dict[Register, Register]) -> "Instruction":
        """Return a copy with registers substituted through *mapping*.

        Registers absent from the mapping are kept as-is.  ``attrs`` is
        shared intentionally (metadata is immutable by convention).
        """
        new_defs = tuple(mapping.get(d, d) for d in self.defs)
        new_uses = tuple(
            mapping.get(u, u) if is_reg(u) else u for u in self.uses
        )
        return replace(self, defs=new_defs, uses=new_uses)

    def __repr__(self) -> str:
        defs = ", ".join(repr(d) for d in self.defs)
        uses = ", ".join(repr(u) for u in self.uses)
        if defs and uses:
            return f"{defs} = {self.opcode} {uses}"
        if defs:
            return f"{defs} = {self.opcode}"
        if uses:
            return f"{self.opcode} {uses}"
        return self.opcode


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def arith(opcode: str, dst: Register, *srcs: Operand, **attrs) -> Instruction:
    """Build an arithmetic instruction ``dst = opcode srcs...``."""
    return Instruction(opcode, OpKind.ARITH, (dst,), tuple(srcs), dict(attrs))


def copy(dst: Register, src: Register, **attrs) -> Instruction:
    """Build a register copy ``dst = mov src``."""
    return Instruction(_DEFAULT_OPCODE[OpKind.COPY], OpKind.COPY, (dst,), (src,), dict(attrs))


def load(dst: Register, addr: Operand | None = None, **attrs) -> Instruction:
    uses = (addr,) if addr is not None else ()
    return Instruction(_DEFAULT_OPCODE[OpKind.LOAD], OpKind.LOAD, (dst,), uses, dict(attrs))


def store(src: Register, addr: Operand | None = None, **attrs) -> Instruction:
    uses = (src, addr) if addr is not None else (src,)
    return Instruction(_DEFAULT_OPCODE[OpKind.STORE], OpKind.STORE, (), uses, dict(attrs))


def loadimm(dst: Register, value: float | int, **attrs) -> Instruction:
    return Instruction(
        _DEFAULT_OPCODE[OpKind.LOADIMM], OpKind.LOADIMM, (dst,), (Immediate(value),), dict(attrs)
    )


def branch(target: str, *, taken_prob: float = 0.5, cond: Register | None = None, **attrs) -> Instruction:
    """Conditional branch to *target* (block label); falls through otherwise.

    ``taken_prob`` drives the dynamic simulator's seeded branch decisions,
    standing in for the data-dependent behaviour of the paper's QEMU runs.
    """
    meta = dict(attrs)
    meta["target"] = target
    meta["taken_prob"] = taken_prob
    uses = (cond,) if cond is not None else ()
    return Instruction(_DEFAULT_OPCODE[OpKind.BRANCH], OpKind.BRANCH, (), uses, meta)


def jump(target: str, **attrs) -> Instruction:
    meta = dict(attrs)
    meta["target"] = target
    return Instruction(_DEFAULT_OPCODE[OpKind.JUMP], OpKind.JUMP, (), (), meta)


def ret(*values: Operand, **attrs) -> Instruction:
    return Instruction(_DEFAULT_OPCODE[OpKind.RET], OpKind.RET, (), tuple(values), dict(attrs))


def nop(**attrs) -> Instruction:
    return Instruction(_DEFAULT_OPCODE[OpKind.NOP], OpKind.NOP, (), (), dict(attrs))
