"""Value-level execution of IR functions (reference interpreter).

Used as the ground-truth oracle in tests: running a function *before*
register allocation (virtual-register environment) and *after* (physical
registers + spill-slot memory) must produce the same observable values —
the return value and the multiset of stored values.  This catches wrong
rewrites, broken spill code, misplaced split copies, and coalescing bugs
at the semantic level, independent of any structural invariant.

Branch decisions replay deterministically through the seeded walk of
:func:`repro.ir.cfg.walk`: counted latches run their trip counts,
data-dependent branches draw from a seeded RNG — the same seed yields
the same path in the pre- and post-allocation functions because the
pipeline never adds or removes branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..ir.cfg import walk
from ..ir.function import Function
from ..ir.instruction import OpKind
from ..ir.types import Immediate, Register


class ExecutionError(RuntimeError):
    """Raised on use of an undefined register or an unknown opcode."""


def _fmadd(a: float, b: float, c: float) -> float:
    return a * b + c


def _fmsub(a: float, b: float, c: float) -> float:
    return a * b - c


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        return math.copysign(math.inf, a) if a != 0.0 else math.nan
    return a / b


def _safe_sqrt(a: float) -> float:
    return math.copysign(math.sqrt(abs(a)), a)


#: Opcode semantics.  Unknown ARITH opcodes raise, keeping the oracle
#: honest about what it actually models.
OPCODE_SEMANTICS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": _safe_div,
    "fmin": min,
    "fmax": max,
    "fmadd": _fmadd,
    "fmsub": _fmsub,
    "fneg": lambda a: -a,
    "fabs": abs,
    "fsqrt": _safe_sqrt,
    "frelu": lambda a: max(0.0, a),
}


@dataclass
class ExecutionTrace:
    """Observable behaviour of one execution."""

    return_values: tuple[float, ...] = ()
    stored_values: list[float] = field(default_factory=list)
    executed_instructions: int = 0
    truncated: bool = False

    def observables(self) -> tuple:
        """Comparable summary: return values + *sorted* stores (the
        scheduler may legally reorder independent stores)."""
        return (self.return_values, tuple(sorted(self.stored_values)))


@dataclass
class ValueInterpreter:
    """Executes a function over real floats.

    Works on virtual-register IR, physical-register IR, or a mix: the
    environment is keyed by register identity.  Spill loads/stores (tagged
    with ``spill_slot``) move values through a slot-indexed memory;
    generic loads produce a deterministic input stream.
    """

    seed: int = 0
    max_instructions: int = 1_000_000

    def run(self, function: Function) -> ExecutionTrace:
        from ..obs import TRACER

        env: dict[Register, float] = {}
        spill_memory: dict[int, float] = {}
        input_counter = 0
        trace = ExecutionTrace()

        # Execution-heat profiling: the interpreter has no register file,
        # so it attributes executed instances (empty detail), giving the
        # hotspot listings their per-site execution counts.  Counts batch
        # in a run-local dict, emitted as one event at exit.
        profiling = TRACER.wants("profile")
        heat: dict[tuple, float] = {}
        paths: dict[str, tuple[str, ...]] = {}
        if profiling:
            from ..obs import loop_paths

            paths = loop_paths(function)

        def flush() -> None:
            if heat:
                TRACER.fact("sites", rows=[
                    (*key, 0.0, 0.0, count) for key, count in heat.items()
                ])

        def read(operand) -> float:
            if isinstance(operand, Immediate):
                return float(operand.value)
            try:
                return env[operand]
            except KeyError:
                raise ExecutionError(
                    f"{function.name}: read of undefined register {operand!r}"
                ) from None

        for block in walk(function, self.seed):
            for index, instr in enumerate(block):
                trace.executed_instructions += 1
                if trace.executed_instructions > self.max_instructions:
                    trace.truncated = True
                    flush()
                    return trace
                if profiling:
                    key = (
                        function.name, paths.get(block.label, ()),
                        block.label, index, instr.opcode, "",
                    )
                    heat[key] = heat.get(key, 0.0) + 1.0
                kind = instr.kind
                if kind is OpKind.ARITH:
                    semantics = OPCODE_SEMANTICS.get(instr.opcode)
                    if semantics is None:
                        raise ExecutionError(
                            f"{function.name}: no semantics for opcode "
                            f"{instr.opcode!r}"
                        )
                    operands = [read(u) for u in instr.uses]
                    value = semantics(*operands)
                    for dst in instr.defs:
                        env[dst] = value
                elif kind is OpKind.COPY:
                    env[instr.defs[0]] = read(instr.uses[0])
                elif kind is OpKind.LOADIMM:
                    env[instr.defs[0]] = float(instr.uses[0].value)
                elif kind is OpKind.LOAD:
                    slot = instr.attrs.get("spill_slot")
                    if slot is not None:
                        if slot not in spill_memory:
                            raise ExecutionError(
                                f"{function.name}: reload from slot {slot} "
                                f"before any store"
                            )
                        env[instr.defs[0]] = spill_memory[slot]
                    else:
                        # Deterministic synthetic input stream.
                        input_counter += 1
                        env[instr.defs[0]] = math.sin(float(input_counter))
                elif kind is OpKind.STORE:
                    slot = instr.attrs.get("spill_slot")
                    value = read(instr.uses[0])
                    if slot is not None:
                        spill_memory[slot] = value
                    else:
                        trace.stored_values.append(value)
                elif kind is OpKind.RET:
                    trace.return_values = tuple(read(u) for u in instr.uses)
                    flush()
                    return trace
                # JUMP / BRANCH: the walk follows them.  NOP / CALL: no
                # value effect in this model.
        flush()
        return trace


def observably_equivalent(
    before: Function, after: Function, *, seed: int = 0, rel_tol: float = 1e-6
) -> bool:
    """True when *before* and *after* produce the same observables.

    Floating-point comparison is tolerant: legal reassociation does not
    occur in the pipeline, but spill round-trips go through the same
    float64 values, so equality is normally exact; the tolerance guards
    against platform-specific fused operations.
    """
    interpreter = ValueInterpreter(seed=seed)
    trace_before = interpreter.run(before)
    trace_after = interpreter.run(after)
    if trace_before.truncated or trace_after.truncated:
        raise ExecutionError(
            f"{before.name}: execution budget exhausted before completion; "
            f"equivalence is undecidable (raise max_instructions or shrink "
            f"the workload's trip counts)"
        )
    ret_b, stores_b = trace_before.observables()
    ret_a, stores_a = trace_after.observables()
    if len(ret_b) != len(ret_a) or len(stores_b) != len(stores_a):
        return False
    pairs = list(zip(ret_b, ret_a)) + list(zip(stores_b, stores_a))
    for expected, actual in pairs:
        if math.isnan(expected) and math.isnan(actual):
            continue
        if not math.isclose(expected, actual, rel_tol=rel_tol, abs_tol=1e-9):
            return False
    return True
