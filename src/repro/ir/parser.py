"""Parser for the textual IR format emitted by :mod:`repro.ir.printer`.

The parser exists for tests, examples, and hand-written kernels; workload
generators construct IR programmatically through the builder.  It accepts
exactly what the printer produces plus insignificant whitespace and
``;``-prefixed comments.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .block import BasicBlock
from .function import Function, Module
from .instruction import Instruction, OpKind
from .types import FP, GP, Immediate, PhysicalRegister, RegClass, VirtualRegister

_FUNC_RE = re.compile(r"^func\s+@([\w.$-]+)\s*\{$")
_BLOCK_RE = re.compile(r"^block\s+([\w.$-]+)(?:\s*\[([^\]]*)\])?:$")
_VREG_RE = re.compile(r"^%v(\d+):(\w+)$")
_PREG_RE = re.compile(r"^\$(\w+?)(\d+)$")
_IMM_RE = re.compile(r"^#(-?[\d.eE+]+)$")

_CLASSES: dict[str, RegClass] = {"fp": FP, "gp": GP}

#: Opcode -> kind mapping for parsing.  Arithmetic is the open-ended
#: default for unknown mnemonics with a def.
_KIND_BY_OPCODE = {
    "mov": OpKind.COPY,
    "load": OpKind.LOAD,
    "store": OpKind.STORE,
    "li": OpKind.LOADIMM,
    "br": OpKind.BRANCH,
    "jmp": OpKind.JUMP,
    "ret": OpKind.RET,
    "call": OpKind.CALL,
    "nop": OpKind.NOP,
}


class ParseError(ValueError):
    """Raised on malformed IR text, with a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def register_class(name: str) -> RegClass:
    """Resolve a class name used in the textual format."""
    try:
        return _CLASSES[name]
    except KeyError:
        raise KeyError(f"unknown register class {name!r}") from None


#: Distinct operand texts the parse table keeps.  A benchmark suite
#: fits: SPECfp at scale 0.04 spells 1,705, the eight DSA-OP kernels 2,247.
OPERAND_TABLE_SIZE = 4096


@lru_cache(maxsize=OPERAND_TABLE_SIZE)
def _operand_of(text: str):
    """The operand *text* spells, or None when it spells none.

    Keyed by the text, so ``#1`` (int) and ``#1.0`` (float) stay
    distinct; operands are frozen, so every parse may share one object.
    """
    if m := _VREG_RE.match(text):
        return VirtualRegister(int(m.group(1)), register_class(m.group(2)))
    if m := _PREG_RE.match(text):
        return PhysicalRegister(int(m.group(2)), register_class(m.group(1)))
    if m := _IMM_RE.match(text):
        raw = m.group(1)
        value = float(raw)
        if value.is_integer() and "." not in raw and "e" not in raw.lower():
            return Immediate(int(raw))
        return Immediate(value)
    return None


def _parse_operand(text: str, lineno: int):
    text = text.strip()
    operand = _operand_of(text)
    if operand is None:
        raise ParseError(lineno, f"cannot parse operand {text!r}")
    return operand


def _split_operands(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_instruction(line: str, lineno: int) -> Instruction:
    attrs: dict = {}
    # Only a spaced "=" separates defs from the opcode; "=" may also occur
    # inside attribute tokens such as "prob=0.75".
    pieces = re.split(r"\s=\s", line, maxsplit=1)
    if len(pieces) == 2:
        defs_text, body = pieces[0], pieces[1].strip()
    else:
        defs_text, body = "", line.strip()
    defs = tuple(_parse_operand(t, lineno) for t in _split_operands(defs_text))

    parts = body.split(None, 1)
    opcode = parts[0]
    operand_text = parts[1] if len(parts) > 1 else ""
    kind = _KIND_BY_OPCODE.get(opcode, OpKind.ARITH)

    if kind in (OpKind.BRANCH, OpKind.JUMP):
        tokens = operand_text.split()
        if not tokens:
            raise ParseError(lineno, f"{opcode} requires a target label")
        attrs["target"] = tokens[0]
        uses: list = []
        for token in tokens[1:]:
            token = token.rstrip(",")
            if token.startswith("prob="):
                attrs["taken_prob"] = float(token[len("prob="):])
            else:
                uses.append(_parse_operand(token, lineno))
        return Instruction(opcode, kind, defs, tuple(uses), attrs)

    uses = tuple(_parse_operand(t, lineno) for t in _split_operands(operand_text))
    return Instruction(opcode, kind, defs, uses, attrs)


def parse_function(text: str) -> Function:
    """Parse a single ``func @name { ... }`` definition."""
    functions = parse_module(text).functions
    if len(functions) != 1:
        raise ValueError(f"expected exactly one function, found {len(functions)}")
    return functions[0]


def parse_module(text: str, name: str = "module") -> Module:
    """Parse any number of function definitions into a module."""
    module = Module(name)
    function: Function | None = None
    block: BasicBlock | None = None
    # The function's vregs in first-appearance order (each instruction's
    # uses, then its defs), adopted by its factory at the closing '}'.
    vregs: dict[VirtualRegister, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if m := _FUNC_RE.match(line):
            if function is not None:
                raise ParseError(lineno, "nested 'func' (missing closing '}')")
            function = Function(m.group(1))
            block = None
            vregs = {}
            continue
        if line == "}":
            if function is None:
                raise ParseError(lineno, "'}' outside a function")
            for vreg in vregs:
                function.vregs.adopt(vreg)
            module.add(function)
            function = None
            continue
        if function is None:
            raise ParseError(lineno, f"statement outside a function: {line!r}")
        if m := _BLOCK_RE.match(line):
            block = function.add_block(m.group(1))
            for item in (m.group(2) or "").split():
                key, _, value = item.partition("=")
                if key == "trip":
                    block.attrs["loop_header"] = True
                    block.attrs["trip_count"] = int(value)
                else:
                    raise ParseError(lineno, f"unknown block attribute {key!r}")
            continue
        if block is None:
            raise ParseError(lineno, "instruction before any 'block' line")
        instr = _parse_instruction(line, lineno)
        block.append(instr)
        for reg in (*instr.uses, *instr.defs):
            if isinstance(reg, VirtualRegister):
                vregs[reg] = None
    if function is not None:
        raise ParseError(lineno, "unterminated function (missing '}')")
    return module
