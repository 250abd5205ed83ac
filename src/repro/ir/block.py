"""Basic blocks.

A block is a labeled straight-line instruction sequence ending in at most
one terminator.  Successor edges are derived from the terminator's target
labels plus fall-through; :class:`repro.ir.cfg.CFG` supplies the
fall-through and resolves every block's successors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .instruction import Instruction, OpKind


@dataclass
class BasicBlock:
    """A labeled basic block.

    Attributes:
        label: Unique label within the function.
        instructions: The instruction list; the terminator, when present,
            is last.
        attrs: Metadata.  Recognized keys: ``"loop_header"`` (bool),
            ``"trip_count"`` (int, on loop headers — drives Eq. 1 and the
            dynamic simulator).
    """

    label: str
    instructions: list[Instruction] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def append(self, instr: Instruction) -> Instruction:
        """Append *instr*, keeping the terminator (if any) last."""
        if self.instructions and self.instructions[-1].is_terminator and not instr.is_terminator:
            self.instructions.insert(len(self.instructions) - 1, instr)
        else:
            self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        self.instructions.insert(index, instr)
        return instr

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successor_labels(self, next_label: str | None) -> list[str]:
        """Labels of successor blocks given the layout-order *next_label*.

        A conditional branch has two successors (target + fall-through);
        an unconditional jump one; a return none; a missing terminator
        falls through.
        """
        term = self.terminator
        if term is None:
            return [next_label] if next_label is not None else []
        if term.kind is OpKind.JUMP:
            return [term.attrs["target"]]
        if term.kind is OpKind.BRANCH:
            succs = [term.attrs["target"]]
            if next_label is not None and next_label not in succs:
                succs.append(next_label)
            return succs
        if term.kind is OpKind.RET:
            return []
        return [next_label] if next_label is not None else []

    def body(self) -> Iterator[Instruction]:
        """Iterate non-terminator instructions."""
        for instr in self.instructions:
            if not instr.is_terminator:
                yield instr

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock({self.label!r}, {len(self.instructions)} instrs)"
