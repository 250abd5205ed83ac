"""Structured IR construction.

Workload generators and tests build functions through :class:`IRBuilder`,
which lowers structured ``loop``/``if_then`` regions into the natural-loop
CFG shape that the analyses expect (preheader -> header -> ... -> latch
back-edge -> exit).  Example::

    b = IRBuilder("saxpy")
    x, y, a = b.fresh(), b.fresh(), b.fresh()
    b.loadimm(a, 2.0)
    with b.loop(trip_count=64):
        t = b.arith("fmul", a, x)
        b.arith_into(y, "fadd", t, y)
    b.ret(y)
    fn = b.function
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from . import instruction as ins
from .block import BasicBlock
from .function import Function
from .types import FP, Operand, Register, RegClass, VirtualRegister


@dataclass
class _LoopFrame:
    header: BasicBlock
    exit_label: str
    trip_count: int


class IRBuilder:
    """Builds a :class:`Function` with structured control flow."""

    def __init__(self, name: str, regclass: RegClass = FP):
        self.function = Function(name)
        self.regclass = regclass
        self._current = self.function.add_block("entry")
        self._label_counter = 0
        self._loop_stack: list[_LoopFrame] = []

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------
    def fresh(self, regclass: RegClass | None = None) -> VirtualRegister:
        """A fresh virtual register (defaults to the builder's class)."""
        return self.function.new_vreg(regclass or self.regclass)

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    @property
    def current_block(self) -> BasicBlock:
        return self._current

    def _new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def _start_block(self, label: str) -> BasicBlock:
        block = self.function.add_block(label)
        self._current = block
        return block

    # ------------------------------------------------------------------
    # Instruction emission
    # ------------------------------------------------------------------
    def emit(self, instr: ins.Instruction) -> ins.Instruction:
        """Append a prebuilt instruction to the current block."""
        return self._current.append(instr)

    def arith(self, opcode: str, *srcs: Operand, **attrs) -> VirtualRegister:
        """Emit ``dst = opcode srcs...`` into a fresh register; return dst."""
        dst = self.fresh()
        self.emit(ins.arith(opcode, dst, *srcs, **attrs))
        return dst

    def arith_into(self, dst: Register, opcode: str, *srcs: Operand, **attrs) -> Register:
        """Emit ``dst = opcode srcs...`` into an existing register."""
        self.emit(ins.arith(opcode, dst, *srcs, **attrs))
        return dst

    def copy(self, dst: Register, src: Register, **attrs) -> Register:
        self.emit(ins.copy(dst, src, **attrs))
        return dst

    def loadimm(self, dst: Register, value: float | int) -> Register:
        self.emit(ins.loadimm(dst, value))
        return dst

    def const(self, value: float | int) -> VirtualRegister:
        """Materialize a constant into a fresh register."""
        dst = self.fresh()
        self.loadimm(dst, value)
        return dst

    def load(self, addr: Operand | None = None, **attrs) -> VirtualRegister:
        dst = self.fresh()
        self.emit(ins.load(dst, addr, **attrs))
        return dst

    def store(self, src: Register, addr: Operand | None = None, **attrs) -> None:
        self.emit(ins.store(src, addr, **attrs))

    def ret(self, *values: Operand) -> None:
        self.emit(ins.ret(*values))

    # ------------------------------------------------------------------
    # Structured control flow
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def loop(self, trip_count: int, label_hint: str = "loop"):
        """A counted loop region; body instructions go into the loop.

        Lowering::

            <current>:  jmp header
            header:     (loop_header, trip_count)  <body...>
            ...         (possibly more body blocks)
            <latch>:    br header (prob (t-1)/t); fall-through to exit
            exit:       <construction continues here>
        """
        if trip_count < 1:
            raise ValueError(f"trip_count must be >= 1, got {trip_count}")
        base = self._new_label(label_hint)
        header_label = f"{base}.header"
        exit_label = f"{base}.exit"
        self.emit(ins.jump(header_label))
        header = self._start_block(header_label)
        header.attrs["loop_header"] = True
        header.attrs["trip_count"] = trip_count
        frame = _LoopFrame(header, exit_label, trip_count)
        self._loop_stack.append(frame)
        try:
            yield frame
        finally:
            self._loop_stack.pop()
            taken = (trip_count - 1) / trip_count if trip_count > 1 else 0.0
            self.emit(ins.branch(header_label, taken_prob=taken, loop_latch=True))
            self._start_block(exit_label)

    @contextlib.contextmanager
    def if_then(self, taken_prob: float = 0.5, label_hint: str = "if"):
        """A one-armed conditional; body executes with *taken_prob*.

        Lowering::

            <current>: br then (prob); fall-through to cont
            cont:      jmp join
            then:      <body...>; jmp join     (body placed after cont)
            join:      <construction continues here>

        The then-block is placed *after* the fall-through continuation so
        the branch target is a forward edge, keeping the CFG reducible.
        """
        base = self._new_label(label_hint)
        then_label = f"{base}.then"
        join_label = f"{base}.join"
        self.emit(ins.branch(then_label, taken_prob=taken_prob))
        cont = self._start_block(f"{base}.cont")
        cont.append(ins.jump(join_label))
        self._start_block(then_label)
        try:
            yield
        finally:
            self.emit(ins.jump(join_label))
            self._start_block(join_label)

    @contextlib.contextmanager
    def if_else(self, taken_prob: float = 0.5, label_hint: str = "if"):
        """A two-armed conditional: yields a switcher for the else arm.

        Usage::

            with b.if_else(0.3) as orelse:
                ... then-arm instructions ...
                orelse()
                ... else-arm instructions ...

        Lowering (the then arm is the fall-through, so the branch jumps to
        the else arm with probability ``1 - taken_prob``)::

            <current>: br else (1 - prob); fall-through to then
            then:      <then body...>; jmp join
            else:      <else body...>; jmp join
            join:      <construction continues here>
        """
        base = self._new_label(label_hint)
        then_label = f"{base}.then"
        else_label = f"{base}.else"
        join_label = f"{base}.join"
        self.emit(ins.branch(else_label, taken_prob=1.0 - taken_prob))
        self._start_block(then_label)
        state = {"arm": "then"}

        def orelse() -> None:
            if state["arm"] != "then":
                raise RuntimeError("orelse() may only be called once, after the then arm")
            self.emit(ins.jump(join_label))
            state["arm"] = "else"
            self._start_block(else_label)

        try:
            yield orelse
        finally:
            self.emit(ins.jump(join_label))
            if state["arm"] == "then":
                # orelse() was never invoked: synthesize an empty else arm so
                # the branch target exists.
                empty = self._start_block(else_label)
                empty.append(ins.jump(join_label))
            self._start_block(join_label)

    # ------------------------------------------------------------------
    def finish(self) -> Function:
        """Terminate the function (adds ``ret`` if missing) and return it."""
        if self._current.terminator is None:
            self.ret()
        return self.function
