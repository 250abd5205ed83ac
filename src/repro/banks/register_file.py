"""Banked register file descriptions.

Two designs from the paper:

* :class:`BankedRegisterFile` — an N-way *interleaved* file (§II-A):
  physical register ``r`` belongs to bank ``r mod num_banks``.  Platform-RV
  Setting #1 uses 1024 registers in 2/4/8 banks; Setting #2 uses the
  riscv-64 budget of 32 registers in 2/4 banks.

* :class:`BankSubgroupRegisterFile` — the DSA's two-level design (Fig. 6):
  ``bank = (r mod (num_banks * num_subgroups)) div num_subgroups`` and
  ``subgroup = r mod num_subgroups``; the paper's instance is 2 banks x 4
  subgroups.  Besides the bank-conflict constraint it imposes *subgroup
  alignment*: all operands of an instruction must share a subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import FP, PhysicalRegister, RegClass


def _precompute(register_file, fields: tuple) -> None:
    """Cache a frozen file's hash and its register tuple.

    The file keys every hazard memo; its cached hash is the generated
    field-tuple hash, so no dict or set order moves.
    """
    object.__setattr__(register_file, "_hash", hash(fields))
    object.__setattr__(register_file, "_registers", tuple(
        PhysicalRegister(i, register_file.regclass)
        for i in range(register_file.num_registers)
    ))


@dataclass(frozen=True)
class BankedRegisterFile:
    """An interleaved multi-banked register file for one register class."""

    num_registers: int
    num_banks: int
    regclass: RegClass = FP

    def __post_init__(self):
        if self.num_registers < 1:
            raise ValueError("num_registers must be positive")
        if self.num_banks < 1:
            raise ValueError("num_banks must be positive")
        if self.num_registers % self.num_banks != 0:
            raise ValueError(
                f"{self.num_registers} registers do not divide evenly into "
                f"{self.num_banks} banks"
            )
        _precompute(self, (self.num_registers, self.num_banks, self.regclass))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    @property
    def registers_per_bank(self) -> int:
        return self.num_registers // self.num_banks

    def bank_of(self, reg: PhysicalRegister | int) -> int:
        """Bank number of a physical register (interleaved decoding)."""
        index = reg.index if isinstance(reg, PhysicalRegister) else reg
        return index % self.num_banks

    def registers(self) -> list[PhysicalRegister]:
        """All physical registers, in index order (a fresh list)."""
        return list(self._registers)

    def registers_in_bank(self, bank: int) -> list[PhysicalRegister]:
        if not 0 <= bank < self.num_banks:
            raise ValueError(f"bank {bank} out of range [0, {self.num_banks})")
        return list(self._registers[bank::self.num_banks])

    def subgroup_of(self, reg: PhysicalRegister | int) -> int:
        """Flat files have a single subgroup; provided for API symmetry."""
        return 0

    @property
    def num_subgroups(self) -> int:
        return 1

    def describe(self) -> str:
        return (
            f"{self.num_registers} x {self.regclass.name} registers, "
            f"{self.num_banks}-banked ({self.registers_per_bank}/bank)"
        )


@dataclass(frozen=True)
class BankSubgroupRegisterFile:
    """The DSA's two-level bank-subgroup register file (Fig. 6).

    With ``B`` banks and ``S`` subgroups, register ``r`` decodes as::

        bank_number     = (r mod (B * S)) div S
        subgroup_number =  r mod S

    (The paper states the 2x4 instance as ``bank = (r mod 8) div 4`` and
    ``subgroup = r mod 4``.)
    """

    num_registers: int
    num_banks: int = 2
    num_subgroups: int = 4
    regclass: RegClass = FP

    def __post_init__(self):
        period = self.num_banks * self.num_subgroups
        if self.num_registers % period != 0:
            raise ValueError(
                f"{self.num_registers} registers do not divide evenly into "
                f"a {self.num_banks}x{self.num_subgroups} bank-subgroup layout"
            )
        _precompute(self, (self.num_registers, self.num_banks, self.num_subgroups,
                       self.regclass))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    @property
    def registers_per_bank(self) -> int:
        return self.num_registers // self.num_banks

    def bank_of(self, reg: PhysicalRegister | int) -> int:
        index = reg.index if isinstance(reg, PhysicalRegister) else reg
        period = self.num_banks * self.num_subgroups
        return (index % period) // self.num_subgroups

    def subgroup_of(self, reg: PhysicalRegister | int) -> int:
        index = reg.index if isinstance(reg, PhysicalRegister) else reg
        return index % self.num_subgroups

    def displacement_of(self, reg: PhysicalRegister | int) -> int:
        """Alias for :meth:`subgroup_of`: Algorithm 2 calls the shared
        subgroup number a *displacement*."""
        return self.subgroup_of(reg)

    def registers(self) -> list[PhysicalRegister]:
        """All physical registers, in index order (a fresh list)."""
        return list(self._registers)

    def registers_in_bank(self, bank: int) -> list[PhysicalRegister]:
        return [r for r in self._registers if self.bank_of(r) == bank]

    def registers_conforming(self, bank: int, subgroup: int) -> list[PhysicalRegister]:
        """``FindAllRegistersConforming`` of Algorithm 2: the physical
        registers in *bank* whose subgroup number is *subgroup*."""
        return [
            r
            for r in self._registers
            if self.bank_of(r) == bank and self.subgroup_of(r) == subgroup
        ]

    def describe(self) -> str:
        return (
            f"{self.num_registers} x {self.regclass.name} registers, "
            f"{self.num_banks}x{self.num_subgroups} bank-subgrouped"
        )


RegisterFile = BankedRegisterFile | BankSubgroupRegisterFile
"""Either register file design; allocators accept the union."""
