"""Round-trip and error-handling tests for the textual IR format."""

import pytest

from repro.ir import (
    ParseError,
    parse_function,
    parse_module,
    print_function,
    print_module,
    verify_function,
)
from repro.ir import parser as parser_module
from repro.ir.types import (
    FP,
    GP,
    Immediate,
    PhysicalRegister,
    VirtualRegister,
    VRegFactory,
)
from tests.conftest import build_diamond_kernel, build_mac_kernel, build_nested_loops


class TestRoundTrip:
    @pytest.mark.parametrize(
        "builder", [build_mac_kernel, build_diamond_kernel, build_nested_loops]
    )
    def test_print_parse_print_fixed_point(self, builder):
        fn = builder()
        text = print_function(fn)
        fn2 = parse_function(text)
        assert print_function(fn2) == text
        verify_function(fn2)

    def test_trip_count_round_trips(self):
        fn = build_nested_loops((6, 11))
        fn2 = parse_function(print_function(fn))
        headers = [b for b in fn2.blocks if b.attrs.get("loop_header")]
        assert sorted(h.attrs["trip_count"] for h in headers) == [6, 11]

    def test_branch_probability_round_trips(self):
        fn = build_diamond_kernel()
        fn2 = parse_function(print_function(fn))
        branches = [
            i for __, i in fn2.instructions() if i.kind.value == "branch"
        ]
        assert branches[0].attrs["taken_prob"] == pytest.approx(0.75)

    def test_module_round_trip(self):
        from repro.ir import Module

        module = Module("m")
        module.add(build_mac_kernel())
        module.add(build_diamond_kernel())
        text = print_module(module)
        module2 = parse_module(text)
        assert [f.name for f in module2.functions] == ["mac", "diamond"]


class TestOperandParsing:
    def test_physical_registers(self):
        fn = parse_function(
            """
            func @p {
            block entry:
              $fp3 = fadd $fp1, $fp2
              ret
            }
            """
        )
        instr = fn.entry.instructions[0]
        assert instr.defs == (PhysicalRegister(3),)
        assert instr.uses == (PhysicalRegister(1), PhysicalRegister(2))

    def test_integer_immediate(self):
        fn = parse_function(
            "func @i {\nblock entry:\n  %v0:fp = li #3\n  ret\n}"
        )
        assert fn.entry.instructions[0].uses == (Immediate(3),)

    def test_float_immediate(self):
        fn = parse_function(
            "func @i {\nblock entry:\n  %v0:fp = li #3.5\n  ret\n}"
        )
        assert fn.entry.instructions[0].uses == (Immediate(3.5),)

    def test_vreg_factory_adopts_parsed_ids(self):
        fn = parse_function(
            "func @i {\nblock entry:\n  %v41:fp = li #1\n  ret %v41:fp\n}"
        )
        assert fn.new_vreg().vid == 42

    def test_comments_ignored(self):
        fn = parse_function(
            "func @c { ; trailing\nblock entry: ; comment\n  ret ; done\n}"
        )
        assert len(fn.entry.instructions) == 1


def _li(value: str) -> str:
    return f"func @i {{\nblock entry:\n  %v0:fp = li #{value}\n  ret\n}}"


class TestOperandTable:
    """The bounded table from stripped operand text to parsed operand."""

    @pytest.mark.parametrize("first", ["1", "1.0"])
    def test_int_and_float_immediates_stay_distinct_in_either_order(self, first):
        parser_module._operand_of.cache_clear()
        second = "1.0" if first == "1" else "1"
        for text in (first, second, first):
            (imm,) = parse_function(_li(text)).entry.instructions[0].uses
            assert type(imm.value) is (float if "." in text else int)

    def test_register_classes_stay_distinct(self):
        fn = parse_function(
            "func @c {\nblock entry:\n  %v3:fp = li #1\n"
            "  %v3:gp = li #1\n  ret %v3:fp, %v3:gp\n}"
        )
        assert fn.entry.instructions[-1].uses == (
            VirtualRegister(3, FP), VirtualRegister(3, GP)
        )

    def test_table_never_grows_past_its_bound(self):
        bound = parser_module.OPERAND_TABLE_SIZE
        lines = [f"  %v{i}:fp = li #{i}" for i in range(bound + 10)]
        text = "func @big {\nblock entry:\n" + "\n".join(lines) + "\n  ret\n}"
        fn = parse_function(text)
        info = parser_module._operand_of.cache_info()
        assert info.maxsize == bound
        assert info.currsize <= bound
        # Evicted texts parse again to equal operands.
        assert fn.entry.instructions[0].uses == (Immediate(0),)
        assert parse_function(text).entry.instructions[0].defs == (VirtualRegister(0),)

    def test_bad_operand_raises_with_its_line_every_time(self):
        text = "func @f {\nblock entry:\n  %v0:fp = fadd ??, ??\n}"
        for lineno, body in ((3, text), (5, "\n\n" + text)):
            with pytest.raises(ParseError) as info:
                parse_module(body)
            assert info.value.lineno == lineno
            assert "'??'" in str(info.value)

    def test_vreg_only_read_is_adopted(self):
        fn = parse_function(
            "func @r {\nblock entry:\n  %v2:fp = fadd %v9:fp, %v5:gp\n  ret\n}"
        )
        assert fn.vregs.next_vid == 10
        assert fn.vregs.get(5) == VirtualRegister(5, GP)

    def test_parsed_vregs_match_the_function_walk(self):
        """The factory adopts the vregs collected while parsing; it ends
        where adopting ``virtual_registers()`` after the parse did."""
        from tests.test_golden_digests import workload_functions

        for label, original in workload_functions():
            fn = parse_function(print_function(original))
            walked = VRegFactory()
            for vreg in fn.virtual_registers():
                walked.adopt(vreg)
            assert fn.vregs.next_vid == walked.next_vid, label
            assert fn.vregs._by_id == walked._by_id, label


class TestErrors:
    def test_instruction_outside_function(self):
        with pytest.raises(ParseError):
            parse_module("ret")

    def test_instruction_before_block(self):
        with pytest.raises(ParseError):
            parse_module("func @f {\n  ret\n}")

    def test_unterminated_function(self):
        with pytest.raises(ParseError):
            parse_module("func @f {\nblock entry:\n  ret")

    def test_bad_operand(self):
        with pytest.raises(ParseError):
            parse_module("func @f {\nblock entry:\n  %v0:fp = fadd ??\n}")

    def test_branch_without_target(self):
        with pytest.raises(ParseError):
            parse_module("func @f {\nblock entry:\n  br\n}")

    def test_unknown_block_attribute(self):
        with pytest.raises(ParseError):
            parse_module("func @f {\nblock entry [foo=1]:\n  ret\n}")

    def test_multiple_functions_rejected_by_parse_function(self):
        text = "func @a {\nblock entry:\n  ret\n}\nfunc @b {\nblock entry:\n  ret\n}"
        with pytest.raises(ValueError):
            parse_function(text)
        assert len(parse_module(text).functions) == 2
