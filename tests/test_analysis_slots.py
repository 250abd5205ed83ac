"""Tests for slot numbering (the read/write point convention) on the flat
lowering: instruction ``i`` reads at slot ``2*i`` and writes at ``2*i + 1``."""

import pytest

from repro.ir.flat import FlatFunction
from tests.test_golden_digests import workload_functions


@pytest.fixture(scope="module")
def lowered():
    """``(function, its lowering)`` for every workload function."""
    return [(fn, FlatFunction(fn)) for __, fn in workload_functions()]


class TestNumbering:
    def test_slots_are_even_and_sequential(self, lowered):
        for fn, flat in lowered:
            ordinals = [flat.ordinal_of[id(i)] for __, i in fn.instructions()]
            assert ordinals == list(range(len(ordinals)))

    def test_read_and_write_points(self, lowered):
        for fn, flat in lowered:
            for i, (__, instr) in enumerate(fn.instructions()):
                assert flat.instr_at(2 * i) is instr
                assert flat.instr_at(2 * i + 1) is instr

    def test_instruction_lookup_inverse(self, lowered):
        for fn, flat in lowered:
            for __, instr in fn.instructions():
                assert flat.instr_at(2 * flat.ordinal_of[id(instr)]) is instr

    def test_len_matches_instruction_count(self, lowered):
        for fn, flat in lowered:
            assert len(flat.instrs) == fn.instruction_count()

    def test_last_slot(self, lowered):
        for fn, flat in lowered:
            assert flat.num_slots == 2 * fn.instruction_count()


class TestBlockRanges:
    def test_ranges_are_contiguous_and_cover(self, lowered):
        for fn, flat in lowered:
            cursor = 0
            for block in fn.blocks:
                start, end = flat.block_slots(block.label)
                assert start == cursor
                assert end - start == 2 * len(block.instructions)
                cursor = end
            assert cursor == flat.num_slots

    def test_block_of_slot(self, lowered):
        for fn, flat in lowered:
            for block in fn.blocks:
                start, end = flat.block_slots(block.label)
                for slot in range(start, end):
                    assert flat.block_of_slot(slot) == block.label

    def test_block_of_slot_out_of_range(self, lowered):
        for __, flat in lowered:
            with pytest.raises(IndexError):
                flat.block_of_slot(flat.num_slots + 10)
