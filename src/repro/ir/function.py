"""Machine functions: an ordered list of basic blocks plus a vreg factory.

Block order is the *layout order*: fall-through edges follow it, and the
slot indexer numbers instructions in it.  Analyses that need a CFG build
one on demand from :mod:`repro.ir.cfg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .block import BasicBlock
from .instruction import Instruction
from .types import RegClass, VirtualRegister, VRegFactory


@dataclass
class Function:
    """A machine function.

    Attributes:
        name: Function name (unique within a module).
        blocks: Basic blocks in layout order; ``blocks[0]`` is the entry.
        vregs: Factory for fresh virtual registers.
        attrs: Metadata (e.g. the generating workload's parameters).
    """

    name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    vregs: VRegFactory = field(default_factory=VRegFactory)
    attrs: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------
    def add_block(self, label: str) -> BasicBlock:
        """Create and append a new block with *label* (must be unique)."""
        if any(b.label == label for b in self.blocks):
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks.append(block)
        return block

    def block(self, label: str) -> BasicBlock:
        """Look up a block by label."""
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(f"no block {label!r} in function {self.name}")

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    # ------------------------------------------------------------------
    # Instruction / register iteration
    # ------------------------------------------------------------------
    def instructions(self) -> Iterator[tuple[BasicBlock, Instruction]]:
        """Iterate all instructions in layout order with their block."""
        for block in self.blocks:
            for instr in block:
                yield block, instr

    def virtual_registers(self, regclass: RegClass | None = None) -> list[VirtualRegister]:
        """All virtual registers referenced, in first-appearance order."""
        seen: dict[VirtualRegister, None] = {}
        for _, instr in self.instructions():
            for reg in instr.regs():
                if isinstance(reg, VirtualRegister):
                    if regclass is None or reg.regclass == regclass:
                        seen.setdefault(reg)
        return list(seen)

    def new_vreg(self, regclass: RegClass | None = None) -> VirtualRegister:
        """Create a fresh virtual register via the function's factory."""
        if regclass is None:
            return self.vregs.make()
        return self.vregs.make(regclass)

    def rewrite_registers(self, mapping: dict) -> None:
        """Destructively substitute registers through *mapping* everywhere."""
        for block in self.blocks:
            block.instructions = [i.rewrite(mapping) for i in block.instructions]

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def clone(self) -> "Function":
        """Deep copy, so destructive passes (allocation, splitting) can run
        repeatedly on the same source function.

        The structural copy rebuilds blocks and instructions while
        *sharing* the immutable operand values (registers, immediates) and
        shallow-copying attribute dicts — attrs values are immutable by
        convention (see :meth:`~repro.ir.instruction.Instruction.rewrite`),
        so this is observationally identical to ``copy.deepcopy`` at a
        fraction of the cost.
        """
        factory = VRegFactory(self.vregs.next_vid, dict(self.vregs._by_id))
        blocks = [
            BasicBlock(
                block.label,
                [
                    Instruction(i.opcode, i.kind, i.defs, i.uses, dict(i.attrs))
                    for i in block.instructions
                ],
                dict(block.attrs),
            )
            for block in self.blocks
        ]
        return Function(self.name, blocks, factory, dict(self.attrs))

    def __repr__(self) -> str:
        return (
            f"Function({self.name!r}, {len(self.blocks)} blocks, "
            f"{self.instruction_count()} instrs)"
        )


@dataclass
class Module:
    """A compilation module: a named collection of functions.

    Mirrors the paper's "Mods" granularity in Table I; suites are built as
    lists of modules.
    """

    name: str
    functions: list[Function] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def add(self, function: Function) -> Function:
        self.functions.append(function)
        return function

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function {name!r} in module {self.name}")

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)
