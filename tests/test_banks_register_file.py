"""Tests for banked register file decoding (incl. Fig. 6)."""

import dataclasses

import pytest

from repro.banks import BankedRegisterFile, BankSubgroupRegisterFile
from repro.ir.types import FP, GP, PhysicalRegister, RegClass


class TestBankedRegisterFile:
    def test_interleaved_decoding(self):
        rf = BankedRegisterFile(8, 2)
        assert [rf.bank_of(i) for i in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_four_banks(self):
        rf = BankedRegisterFile(8, 4)
        assert [rf.bank_of(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_registers_per_bank(self):
        assert BankedRegisterFile(1024, 8).registers_per_bank == 128

    def test_registers_in_bank(self):
        rf = BankedRegisterFile(8, 2)
        assert [r.index for r in rf.registers_in_bank(1)] == [1, 3, 5, 7]

    def test_registers_complete_partition(self):
        rf = BankedRegisterFile(32, 4)
        union = {r.index for b in range(4) for r in rf.registers_in_bank(b)}
        assert union == set(range(32))

    def test_bank_of_accepts_physical_register(self):
        rf = BankedRegisterFile(8, 2)
        assert rf.bank_of(PhysicalRegister(3)) == 1

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            BankedRegisterFile(10, 4)

    def test_bad_bank_query(self):
        with pytest.raises(ValueError):
            BankedRegisterFile(8, 2).registers_in_bank(5)

    def test_flat_subgroup_api(self):
        rf = BankedRegisterFile(8, 2)
        assert rf.num_subgroups == 1
        assert rf.subgroup_of(5) == 0

    def test_custom_regclass(self):
        rf = BankedRegisterFile(4, 2, GP)
        assert all(r.regclass == GP for r in rf.registers())


class TestBankSubgroupRegisterFile:
    """Fig. 6: bank = (r mod 8) div 4, subgroup = r mod 4 for the 2x4."""

    def test_paper_decoding(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        expected_banks = [0, 0, 0, 0, 1, 1, 1, 1] * 2
        expected_subgroups = [0, 1, 2, 3] * 4
        assert [rf.bank_of(i) for i in range(16)] == expected_banks
        assert [rf.subgroup_of(i) for i in range(16)] == expected_subgroups

    def test_fig7_register_numbers(self):
        """The paper's Fig. 7 example: vr1, vr5, vr9, vr10, vr13 decode to
        bank/subgroup 0/1, 1/1, 0/1, 0/2, 1/1."""
        rf = BankSubgroupRegisterFile(16, 2, 4)
        decoded = [
            (rf.bank_of(i), rf.subgroup_of(i)) for i in (1, 5, 9, 10, 13)
        ]
        assert decoded == [(0, 1), (1, 1), (0, 1), (0, 2), (1, 1)]

    def test_displacement_alias(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        assert rf.displacement_of(10) == rf.subgroup_of(10)

    def test_registers_conforming(self):
        rf = BankSubgroupRegisterFile(16, 2, 4)
        conforming = rf.registers_conforming(1, 2)
        assert [r.index for r in conforming] == [6, 14]
        for r in conforming:
            assert rf.bank_of(r) == 1 and rf.subgroup_of(r) == 2

    def test_conforming_partition(self):
        rf = BankSubgroupRegisterFile(1024, 2, 4)
        total = sum(
            len(rf.registers_conforming(b, s))
            for b in range(2)
            for s in range(4)
        )
        assert total == 1024

    def test_period_divisibility_enforced(self):
        with pytest.raises(ValueError):
            BankSubgroupRegisterFile(12, 2, 4)  # period 8 does not divide 12

    def test_registers_per_bank(self):
        assert BankSubgroupRegisterFile(1024, 2, 4).registers_per_bank == 512

    def test_describe_mentions_layout(self):
        assert "2x4" in BankSubgroupRegisterFile(16, 2, 4).describe()


FILES = [
    BankedRegisterFile(32, 2),
    BankedRegisterFile(8, 4, GP),
    BankSubgroupRegisterFile(64, 2, 4),
    BankSubgroupRegisterFile(16, 2, 2, GP),
]


class TestComputedOnce:
    """The register tuple and the hashes are built at construction."""

    @pytest.mark.parametrize("rf", FILES, ids=repr)
    def test_registers_list_is_a_fresh_copy(self, rf):
        first = rf.registers()
        assert first == [PhysicalRegister(i, rf.regclass) for i in range(rf.num_registers)]
        first.reverse()
        first.append(PhysicalRegister(999, rf.regclass))
        assert rf.registers() == [
            PhysicalRegister(i, rf.regclass) for i in range(rf.num_registers)
        ]
        assert rf.registers() is not rf.registers()

    @pytest.mark.parametrize("rf", FILES, ids=repr)
    def test_bank_queries_read_the_same_registers(self, rf):
        for bank in range(rf.num_banks):
            assert rf.registers_in_bank(bank) == [
                PhysicalRegister(i, rf.regclass)
                for i in range(rf.num_registers) if rf.bank_of(i) == bank
            ]

    @pytest.mark.parametrize("rf", FILES, ids=repr)
    def test_hash_is_the_field_tuple_hash(self, rf):
        fields = tuple(getattr(rf, f.name) for f in dataclasses.fields(rf))
        assert hash(rf) == hash(fields)
        assert hash(rf) == hash(dataclasses.replace(rf))
        assert rf == dataclasses.replace(rf)

    @pytest.mark.parametrize("regclass", [FP, GP], ids=repr)
    def test_regclass_hash_is_the_field_tuple_hash(self, regclass):
        assert hash(regclass) == hash((regclass.name, regclass.bankable))
        assert {regclass: 1}[RegClass(regclass.name, regclass.bankable)] == 1
