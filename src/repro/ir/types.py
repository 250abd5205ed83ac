"""Core value types of the machine IR: register classes and registers.

The IR models a late, machine-level representation comparable to LLVM's
Machine IR after instruction selection: instructions operate on *virtual
registers* drawn from *register classes*, and register allocation rewrites
them to *physical registers* of the same class.

Bank information is deliberately not part of these types: which bank a
physical register belongs to is a property of the target register file
(see :mod:`repro.banks.register_file`), mirroring the paper's setting where
bank structure is a micro-architectural decoding of the register index.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RegClass:
    """A register class (e.g. floating-point vector registers).

    Attributes:
        name: Human-readable class name, unique within a target.
        bankable: Whether registers of this class live in a banked register
            file and therefore participate in bank-conflict analysis.  The
            paper only banks the floating-point/vector file; integer
            registers are allocated normally and never conflict.
    """

    name: str
    bankable: bool = True

    def __post_init__(self):
        # A memo key of every bankable-read scan and hazard lookup: the
        # cached value is the generated field-tuple hash, as for the
        # registers below.
        object.__setattr__(self, "_hash", hash((self.name, self.bankable)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RegClass({self.name!r})"


#: The default floating-point/vector register class used throughout the
#: reproduction.  All bank-conflict analysis applies to this class.
FP = RegClass("fp", bankable=True)

#: General-purpose (integer) register class.  Not banked; used for address
#: arithmetic and loop control in generated workloads.
GP = RegClass("gp", bankable=False)


@dataclass(frozen=True)
class VirtualRegister:
    """A virtual register: an SSA-like value name prior to allocation.

    Virtual registers are identified by an integer id, unique within a
    function, plus their register class.  They are immutable and hashable so
    they can serve as graph vertices (RIG/RCG/SDG) and dict keys.
    """

    vid: int
    regclass: RegClass = FP

    def __post_init__(self):
        # Registers are dict keys on every hot path (liveness sets, RCG
        # adjacency, bank maps); caching the tuple hash once here keeps
        # the *value* identical while skipping the per-lookup recompute.
        object.__setattr__(self, "_hash", hash((self.vid, self.regclass)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        return f"%v{self.vid}"

    def __repr__(self) -> str:
        return f"{self.name}:{self.regclass.name}"


@dataclass(frozen=True)
class PhysicalRegister:
    """A physical register: an architectural register index within a class.

    The index is the *register number* of the paper's Fig. 6; the target
    register file decodes it into bank (and, on the DSA, subgroup) numbers.
    """

    index: int
    regclass: RegClass = FP

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.index, self.regclass)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        prefix = "f" if self.regclass.bankable else "x"
        return f"${prefix}{self.index}"

    def __repr__(self) -> str:
        return self.name


Register = VirtualRegister | PhysicalRegister
"""Either kind of register; instruction operands hold this union."""


@dataclass(frozen=True)
class Immediate:
    """A constant operand.  Kept simple: a Python float or int payload."""

    value: float | int

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = Register | Immediate
"""Anything that may appear in an instruction's use list."""


def is_vreg(value: object) -> bool:
    """Return True if *value* is a virtual register."""
    return isinstance(value, VirtualRegister)


def is_preg(value: object) -> bool:
    """Return True if *value* is a physical register."""
    return isinstance(value, PhysicalRegister)


def is_reg(value: object) -> bool:
    """Return True if *value* is a register of either kind."""
    return isinstance(value, (VirtualRegister, PhysicalRegister))


@dataclass
class VRegFactory:
    """Allocates fresh virtual register ids for one function.

    Splitting and spilling create new virtual registers late in the
    pipeline; routing all creation through a factory keeps ids unique even
    after transformation passes have run.
    """

    next_vid: int = 0
    _by_id: dict[int, VirtualRegister] = field(default_factory=dict)

    def make(self, regclass: RegClass = FP) -> VirtualRegister:
        """Create a fresh virtual register of *regclass*."""
        reg = VirtualRegister(self.next_vid, regclass)
        self._by_id[self.next_vid] = reg
        self.next_vid += 1
        return reg

    def adopt(self, reg: VirtualRegister) -> None:
        """Record an externally created vreg so future ids do not collide."""
        self._by_id[reg.vid] = reg
        if reg.vid >= self.next_vid:
            self.next_vid = reg.vid + 1

    def get(self, vid: int) -> VirtualRegister:
        """Look up a previously created vreg by id."""
        return self._by_id[vid]

    def __len__(self) -> int:
        return len(self._by_id)
