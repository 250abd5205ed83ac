"""Tests for SDG-based subgroup splitting (Figs. 8/9)."""

from functools import partial

import pytest

from repro.analysis import SameDisplacementGraph
from repro.ir import IRBuilder, OpKind, print_function, verify_function
from repro.ir import instruction as ins
from repro.ir.flat import FlatFunction
from repro.ir.instruction import Instruction
from repro.ir.types import FP, RegClass
from repro.passes import SDGAnalysis
from repro.prescount import (
    PipelineConfig,
    SdgSplitConfig,
    SdgSplitResult,
    run_pipeline,
    sdg_split,
    split_subgroups,
)
from repro.prescount import passes as prescount_passes
from repro.sim import observably_equivalent
from repro.sim.machine import DSA_SUBGROUPED, platform_dsa
from repro.workloads import (
    DSA_KERNELS,
    idft_kernel,
    random_function,
    reduce_kernel,
    shared_use_kernel,
)

from .reference_analyses import needs_alignment, reference_sdg


def count_sdg_copies(fn):
    return sum(
        1 for __, i in fn.instructions()
        if i.kind is OpKind.COPY and i.attrs.get("sdg_copy")
    )


def max_component(fn):
    sdg = SameDisplacementGraph.build(fn)
    return max((len(c) for c in sdg.components()), default=0)


class TestInputSharing:
    def test_large_fanout_cut(self):
        fn = shared_use_kernel(consumers=12)
        reference = fn.clone()
        config = SdgSplitConfig(fanout_threshold=4, max_component_size=8)
        result = split_subgroups(fn, config=config)
        assert result.copies_inserted > 0
        assert any(kind == "input_sharing" for kind, __ in result.splits)
        verify_function(fn)
        assert observably_equivalent(reference, fn)

    def test_component_size_reduced(self):
        fn = shared_use_kernel(consumers=12)
        before = max_component(fn)
        split_subgroups(fn, config=SdgSplitConfig(4, 8, 32))
        assert max_component(fn) < before

    def test_copies_tagged_sdg(self):
        fn = shared_use_kernel(consumers=12)
        result = split_subgroups(fn, config=SdgSplitConfig(4, 8, 32))
        assert count_sdg_copies(fn) == result.copies_inserted


class TestOutputSharing:
    def test_reduction_cut(self):
        fn = reduce_kernel(inputs=16, trip_count=2)
        reference = fn.clone()
        config = SdgSplitConfig(fanout_threshold=4, max_component_size=8)
        result = split_subgroups(fn, config=config)
        assert result.copies_inserted > 0
        assert any(kind == "output_sharing" for kind, __ in result.splits)
        verify_function(fn)
        assert observably_equivalent(reference, fn)

    def test_accumulator_value_preserved_exactly(self):
        """The partial-accumulator rewrite must compute the same sum."""
        from repro.sim import ValueInterpreter

        fn = reduce_kernel(inputs=16, trip_count=2)
        expected = ValueInterpreter().run(fn).return_values
        split_subgroups(fn, config=SdgSplitConfig(4, 8, 32))
        actual = ValueInterpreter().run(fn).return_values
        assert expected == actual


class TestControl:
    def test_small_components_untouched(self):
        fn = reduce_kernel(inputs=3)
        result = split_subgroups(fn, config=SdgSplitConfig(4, 64, 8))
        assert result.copies_inserted == 0

    def test_rounds_bounded(self):
        fn = idft_kernel(points=6)
        result = split_subgroups(fn, config=SdgSplitConfig(4, 8, max_rounds=2))
        assert result.rounds <= 2

    def test_idft_requires_many_copies(self):
        """The paper's idft stress case: heavy copy generation."""
        fn = idft_kernel(points=8)
        reference = fn.clone()
        result = split_subgroups(fn, config=SdgSplitConfig(4, 16, 64))
        assert result.copies_inserted >= 8
        verify_function(fn)
        assert observably_equivalent(reference, fn)

    def test_converges_to_fixed_point(self):
        fn = shared_use_kernel(consumers=12)
        split_subgroups(fn, config=SdgSplitConfig(4, 8, 64))
        again = split_subgroups(fn, config=SdgSplitConfig(4, 8, 64))
        # Second run may still find nothing cuttable (centers below
        # threshold): no infinite copy generation.
        assert again.copies_inserted <= 2


# ----------------------------------------------------------------------
# Reference: the pass as it was before the per-round index, scanning the
# whole function on every attempted cut.  The indexed pass must print the
# same IR and return the same result.
def reference_split_subgroups(function, regclass=FP, config=None):
    config = config or SdgSplitConfig()
    result = SdgSplitResult()
    for _round in range(config.max_rounds):
        sdg = reference_sdg(function, regclass)
        oversized = [
            comp
            for comp in sdg.components()
            if len(comp) > config.max_component_size
        ]
        if not oversized:
            break
        result.rounds += 1
        progressed = False
        for component in oversized:
            centers = sdg.sharing_centers(component, config.fanout_threshold)
            cuts = 0
            for center, kind, fanout in centers:
                if kind == "input_sharing":
                    done = _reference_split_input_sharing(function, center)
                else:
                    done = _reference_split_output_sharing(function, center)
                if done:
                    result.copies_inserted += 1
                    result.splits.append((kind, fanout))
                    progressed = True
                    cuts += 1
                    if cuts >= 8:
                        break
        if not progressed:
            break
    return result


def _ordered_instructions(function):
    """(block label, index, instruction) triples in layout order."""
    out = []
    for block in function.blocks:
        for index, instr in enumerate(block.instructions):
            out.append((block.label, index, instr))
    return out


def _reference_split_input_sharing(function, center):
    ordered = _ordered_instructions(function)
    readers = [
        (pos, label, index, instr)
        for pos, (label, index, instr) in enumerate(ordered)
        if needs_alignment(instr, None) and center in instr.bankable_reads()
    ]
    if len(readers) < 2:
        return False
    half = len(readers) // 2
    second_half = readers[half:]
    first_pos, first_label, first_index, __ = second_half[0]
    last_pos = second_half[-1][0]
    if any(label != first_label for __, label, __, __ in second_half):
        return False
    for pos in range(first_pos, last_pos + 1):
        __, __, instr = ordered[pos]
        if center in instr.reg_defs():
            return False
    clone = function.new_vreg(center.regclass)
    mapping = {center: clone}
    targets = {id(instr) for __, __, __, instr in second_half}
    for block in function.blocks:
        block.instructions = [
            instr.rewrite(mapping) if id(instr) in targets else instr
            for instr in block.instructions
        ]
    block = function.block(first_label)
    block.insert(first_index, ins.copy(clone, center, sdg_copy=True))
    return True


def _reference_split_output_sharing(function, center):
    ordered = _ordered_instructions(function)
    writers = [
        (pos, label, index, instr)
        for pos, (label, index, instr) in enumerate(ordered)
        if needs_alignment(instr, None) and center in instr.vreg_defs()
    ]
    if len(writers) < 2:
        return False
    half = len(writers) // 2
    first_half = writers[:half]
    first_pos = first_half[0][0]
    last_pos = first_half[-1][0]
    if any(label != first_half[0][1] for __, label, __, __ in first_half):
        return False
    rewritten_ids = {id(instr) for __, __, __, instr in first_half}
    for pos in range(first_pos, last_pos + 1):
        __, __, instr = ordered[pos]
        if id(instr) in rewritten_ids:
            continue
        touches = center in instr.reg_uses() or center in instr.reg_defs()
        if touches:
            return False
    partial_reg = function.new_vreg(center.regclass)
    mapping = {center: partial_reg}
    first_instr = first_half[0][3]
    for block in function.blocks:
        new_instructions = []
        for instr in block.instructions:
            if id(instr) not in rewritten_ids:
                new_instructions.append(instr)
            elif instr is first_instr:
                rewritten = instr.rewrite(mapping)
                new_instructions.append(
                    Instruction(
                        rewritten.opcode,
                        rewritten.kind,
                        rewritten.defs,
                        instr.uses,
                        rewritten.attrs,
                    )
                )
            else:
                new_instructions.append(instr.rewrite(mapping))
        block.instructions = new_instructions
    __, last_label, last_index, __ = first_half[-1]
    block = function.block(last_label)
    block.insert(last_index + 1, ins.copy(center, partial_reg, sdg_copy=True))
    return True


def interleaved_reader_kernel():
    """A reduction whose accumulator is read between two of its updates,
    so the output-sharing cut must refuse (no workload kernel or random
    program reaches that refusal)."""
    b = IRBuilder("interleaved")
    values = [b.const(float(i)) for i in range(8)]
    acc = b.const(0.0)
    peek = None
    for i, value in enumerate(values):
        b.arith_into(acc, "fadd", acc, value)
        if i == 1:
            peek = b.arith("fmul", acc, value)
    b.ret(b.arith("fadd", acc, peek))
    return b.finish()


def reduce_then_share_kernel():
    """An accumulator that is both a reduction (in-degree 8) and a shared
    input (out-degree 5): its output cut comes first in the round, and
    the input cut that follows must see the readers it rewrote."""
    b = IRBuilder("reduce-then-share")
    values = [b.const(float(i)) for i in range(8)]
    scale = b.const(0.5)
    acc = b.const(0.0)
    for value in values:
        b.arith_into(acc, "fadd", acc, value)
    total = b.arith("fmul", acc, scale)
    for __ in range(4):
        total = b.arith("fadd", total, b.arith("fmul", acc, scale))
    b.ret(total)
    return b.finish()


def arith_seeded_reduction_kernel():
    """A reduction whose first write is arithmetic and reads no earlier
    value of the accumulator.  Its output cut leaves the accumulator no
    operand at that write, so the accumulator's first appearance moves
    past the cut, and with it the accumulator's place in the component
    order."""
    b = IRBuilder("arith-seeded")
    values = [b.const(float(i)) for i in range(8)]
    acc = b.arith("fmul", values[0], values[1])
    for value in values[2:]:
        b.arith_into(acc, "fadd", acc, value)
    b.ret(acc)
    return b.finish()


def second_bankable_class_kernel():
    """A reduction into an fp accumulator whose later writes read only
    registers of a second bankable class.  The fp SDG aligns none of
    those writes, so once the output cut renames the earlier ones the
    accumulator is no aligned operand at all, and its vertex goes."""
    wide_class = RegClass("wide", bankable=True)
    b = IRBuilder("second-bankable-class")
    values = [b.const(float(i)) for i in range(6)]
    wide = [b.fresh(wide_class) for __ in range(2)]
    for reg in wide:
        b.copy(reg, values[0])
    acc = b.arith("fmul", values[0], values[1])
    for value in values[2:]:
        b.arith_into(acc, "fadd", acc, value)
    for __ in range(6):
        b.arith_into(acc, "wop", wide[0], wide[1])
    b.ret(acc)
    return b.finish()


DIFFERENTIAL_CONFIGS = {
    "4-8-32": SdgSplitConfig(4, 8, 32),
    "4-16-64": SdgSplitConfig(4, 16, 64),
    "2-4-256": SdgSplitConfig(2, 4, 256),
    "3-6-5": SdgSplitConfig(3, 6, 5),
}

#: Every kernel under every config, except where the reference is too
#: slow: idft at 16 points, and tr15651 under 2-4-256 (1192 copies over
#: 150 rounds), each need minutes of quadratic scanning.
DIFFERENTIAL_INPUTS = {
    **{name: factory for name, factory in DSA_KERNELS.items() if name != "idft"},
    **{f"idft-{n}": partial(idft_kernel, points=n) for n in (4, 6, 8)},
    "shared-use-12": partial(shared_use_kernel, consumers=12),
    "reduce-16": partial(reduce_kernel, inputs=16, trip_count=2),
    "interleaved-reader": interleaved_reader_kernel,
    "reduce-then-share": reduce_then_share_kernel,
    "arith-seeded": arith_seeded_reduction_kernel,
    "second-bankable-class": second_bankable_class_kernel,
}
KERNEL_CASES = [
    (name, config)
    for name in DIFFERENTIAL_INPUTS
    for config in DIFFERENTIAL_CONFIGS
    if (name, config) != ("tr15651", "2-4-256")
]

#: At 4-8-32 these random programs make input and output cuts and refuse
#: both across blocks; at 2-4-256 and 3-6-5 they also refuse input cuts
#: on a redefined center.  The interleaved-reader kernel covers the one
#: refusal they never reach.
RANDOM_SEEDS = range(200)


def assert_same_split(make_function, config, label):
    expected_fn = make_function()
    actual_fn = expected_fn.clone()
    expected = reference_split_subgroups(expected_fn, config=config)
    actual = split_subgroups(actual_fn, config=config)
    assert print_function(actual_fn) == print_function(expected_fn), label
    assert actual == expected, label


class TestIndexedSplitMatchesReference:
    @pytest.mark.parametrize("name, config", KERNEL_CASES)
    def test_kernels(self, name, config):
        assert_same_split(
            DIFFERENTIAL_INPUTS[name], DIFFERENTIAL_CONFIGS[config], name
        )

    @pytest.mark.parametrize("config", DIFFERENTIAL_CONFIGS)
    def test_random_functions(self, config):
        for seed in RANDOM_SEEDS:
            assert_same_split(
                partial(random_function, seed, max_ops=20),
                DIFFERENTIAL_CONFIGS[config],
                f"random_function({seed})",
            )


def live_entries(index, table, b):
    """One block of *table* with coordinates mapped to live positions."""
    return {
        reg: [index.position(b, c) for c in coordinates]
        for reg, coordinates in table[b].items()
        if coordinates
    }


def test_index_matches_a_fresh_build_after_every_cut(monkeypatch):
    """Every in-place update keeps the index equal to one built from the
    live function, including entries no later cut reads, and keeps the
    patched SDG equal to a fresh build: its edges, their counts, and its
    components in order (that order fixes the cut order and the numbers
    of the fresh vregs).  Both persist across rounds, so the checks run
    through every round of a split."""
    checked = []

    def checking(cut):
        def run(function, index, center):
            done = cut(function, index, center)
            flat = FlatFunction(function)
            sdg = index.sdg
            fresh_sdg = SameDisplacementGraph.build(function, sdg.regclass, flat)
            fresh = sdg_split._AlignedAccessIndex(flat, fresh_sdg)
            for b in range(len(function.blocks)):
                assert live_entries(index, index.readers, b) == live_entries(
                    fresh, fresh.readers, b
                )
                assert live_entries(index, index.writers, b) == live_entries(
                    fresh, fresh.writers, b
                )
            assert sdg.out_edges == fresh_sdg.out_edges
            assert sdg.in_edges == fresh_sdg.in_edges
            assert sdg.edge_count == fresh_sdg.edge_count
            assert sdg.components() == fresh_sdg.components()
            checked.append(done)
            return done

        return run

    for name in ("_split_input_sharing", "_split_output_sharing"):
        monkeypatch.setattr(sdg_split, name, checking(getattr(sdg_split, name)))
    for make in (
        partial(idft_kernel, points=4),
        reduce_then_share_kernel,
        arith_seeded_reduction_kernel,
        second_bankable_class_kernel,
    ):
        split_subgroups(make(), config=SdgSplitConfig(2, 4, 256))
    # The dsa-op file's split config (a 128-register share): 8 rounds.
    result = split_subgroups(DSA_KERNELS["tr18987"](), config=SdgSplitConfig())
    assert result.rounds == 8
    assert True in checked and False in checked


def test_split_builds_the_sdg_once(monkeypatch):
    """One SDG serves every cutting round of a pipeline's split."""
    builds = []
    build = SameDisplacementGraph.build.__func__

    def counting_build(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    splits = []

    def counting_split(*args, **kwargs):
        before = len(builds)
        result = split_subgroups(*args, **kwargs)
        splits.append((len(builds) - before, result.rounds))
        return result

    monkeypatch.setattr(
        SameDisplacementGraph, "build", classmethod(counting_build)
    )
    monkeypatch.setattr(prescount_passes, "split_subgroups", counting_split)
    register_file = platform_dsa().file_for(DSA_SUBGROUPED)
    pipe = run_pipeline(
        DSA_KERNELS["tr18987"](), PipelineConfig(register_file, "bpc")
    )
    assert splits == [(1, 8)]
    # The split's SDG, then Algorithm 2's of the split function.
    assert pipe.analyses.counter(SDGAnalysis).misses == 2
