"""Tests for spill decomposition and live-range (region) splitting."""

import math

import pytest

from repro.alloc.spiller import TINY_WEIGHT, SpillPlan, materialize, spill_interval
from repro.alloc.splitter import _hottest_use_loop, try_region_split
from repro.analysis import LiveIntervals
from repro.analysis.intervals import LiveInterval
from repro.ir import IRBuilder, LoopInfo, parse_function
from repro.ir.flat import FlatFunction
from repro.ir.types import PhysicalRegister, VirtualRegister
from repro.sim import observably_equivalent
from tests.conftest import build_mac_kernel


class TestSpillDecomposition:
    def setup_method(self):
        self.fn = build_mac_kernel(n_pairs=3)
        self.flat = FlatFunction(self.fn)
        self.live = LiveIntervals.build(self.fn, flat=self.flat)

    def _spill(self, vreg):
        plan = SpillPlan()
        tinies = spill_interval(self.fn, self.flat, self.live.of(vreg), plan)
        return plan, tinies

    def test_one_tiny_per_touching_instruction(self):
        acc = self.fn.virtual_registers()[-1]
        interval = self.live.of(acc)
        touching = {s for s in interval.use_slots} | {
            w - 1 for w in interval.def_slots
        }
        plan, tinies = self._spill(acc)
        assert len(tinies) == len(touching)

    def test_tiny_intervals_have_infinite_weight(self):
        acc = self.fn.virtual_registers()[-1]
        __, tinies = self._spill(acc)
        assert all(math.isinf(t.weight) for t in tinies)
        assert tinies[0].weight == TINY_WEIGHT

    def test_reload_per_use_store_per_def(self):
        acc = self.fn.virtual_registers()[-1]
        interval = self.live.of(acc)
        plan, __ = self._spill(acc)
        reloads = [a for a in plan.actions if a.kind == "reload"]
        stores = [a for a in plan.actions if a.kind == "store"]
        # One reload per instruction reading acc; one store per writer.
        reading = {s for s in interval.use_slots}
        writing = {w - 1 for w in interval.def_slots}
        assert len(reloads) == len(reading)
        assert len(stores) == len(writing)

    def test_rewrites_target_touching_instructions(self):
        acc = self.fn.virtual_registers()[-1]
        plan, __ = self._spill(acc)
        for instr_id, mapping in plan.rewrites.items():
            assert acc in mapping

    def test_slot_reused_per_vreg(self):
        acc = self.fn.virtual_registers()[-1]
        plan, __ = self._spill(acc)
        slots = {a.slot_id for a in plan.actions}
        assert len(slots) == 1

    def test_tiny_segments_bracket_instruction(self):
        acc = self.fn.virtual_registers()[-1]
        interval = self.live.of(acc)
        __, tinies = self._spill(acc)
        for tiny in tinies:
            assert tiny.span <= 3  # at most [slot-1, slot+2)


class TestMaterialize:
    def spilled(self):
        """The mac kernel, a clone with its accumulator's spill planned,
        and the plan."""
        fn = build_mac_kernel(n_pairs=3)
        work = fn.clone()
        acc = work.virtual_registers()[-1]
        flat = FlatFunction(work)
        plan = SpillPlan()
        spill_interval(work, flat, LiveIntervals.build(work, flat=flat).of(acc), plan)
        return fn, work, acc, plan

    def test_spill_code_keeps_tiny_vregs_without_assignment(self):
        fn, work, acc, plan = self.spilled()
        actions = len(plan.actions)
        assert materialize(work, plan, {}) == actions
        spill_ops = [i for __, i in work.instructions() if i.attrs.get("spill")]
        assert len(spill_ops) == actions
        assert all(r != acc for __, i in work.instructions() for r in i.regs())
        assert observably_equivalent(fn, work)

    def test_plan_is_consumed_but_keeps_its_slots(self):
        __, work, acc, plan = self.spilled()
        materialize(work, plan, {})
        assert plan.actions == [] and plan.rewrites == {}
        assert acc in plan.slot_of_vreg

    def test_assignment_reaches_spill_code(self):
        __, work, __, plan = self.spilled()
        vregs = work.virtual_registers() + [a.tiny for a in plan.actions]
        assignment = {
            v: PhysicalRegister(i, v.regclass) for i, v in enumerate(vregs)
        }
        materialize(work, plan, assignment)
        assert not any(
            isinstance(r, VirtualRegister)
            for __, i in work.instructions()
            for r in i.regs()
        )

    def test_split_spill_and_assignment_maps_compose(self):
        work = build_mac_kernel(n_pairs=1)
        x = work.virtual_registers()[0]
        child = work.new_vreg(x.regclass)
        tiny = work.new_vreg(x.regclass)
        readers = [i for __, i in work.instructions() if x in i.reg_uses()]
        first = readers[0]
        plan = SpillPlan(rewrites={id(first): {child: tiny}})
        preg = PhysicalRegister(7, x.regclass)
        materialize(
            work, plan, {tiny: preg}, {id(i): {x: child} for i in readers}
        )
        reads = [i.reg_uses() for __, i in work.instructions()]
        assert not any(x in regs for regs in reads)
        # x -> child everywhere; at the first reader child -> tiny -> preg.
        assert sum(preg in regs for regs in reads) == 1
        assert sum(child in regs for regs in reads) == len(readers) - 1


class TestRegionSplit:
    def make_split_candidate(self):
        """A value used before, inside, and after a hot loop."""
        b = IRBuilder("f")
        x = b.const(1.0)
        pre = b.arith("fneg", x)
        acc = b.const(0.0)
        with b.loop(trip_count=100):
            b.arith_into(acc, "fadd", acc, x)
        post = b.arith("fadd", x, pre)
        b.ret(post)
        return b.finish(), x

    def test_split_produces_two_children(self):
        fn, x = self.make_split_candidate()
        flat = FlatFunction(fn)
        live = LiveIntervals.build(fn, flat=flat)
        loops = LoopInfo.build(fn)
        result = try_region_split(fn, flat, loops, live.of(x))
        assert result is not None
        assert len(result.children) == 2

    def test_children_partition_uses(self):
        fn, x = self.make_split_candidate()
        flat = FlatFunction(fn)
        live = LiveIntervals.build(fn, flat=flat)
        loops = LoopInfo.build(fn)
        result = try_region_split(fn, flat, loops, live.of(x))
        total_uses = sum(len(c.use_slots) for c in result.children)
        assert total_uses == len(live.of(x).use_slots)

    def test_boundary_copies_emitted(self):
        fn, x = self.make_split_candidate()
        flat = FlatFunction(fn)
        live = LiveIntervals.build(fn, flat=flat)
        loops = LoopInfo.build(fn)
        result = try_region_split(fn, flat, loops, live.of(x))
        # x is live into the loop: at least the entry copy exists.
        assert len(result.copies) >= 1
        positions = {(c.block_label, c.position) for c in result.copies}
        assert any(pos == "end" for __, pos in positions)

    def test_no_split_without_loop(self):
        b = IRBuilder("f")
        x = b.const(1.0)
        t = b.arith("fneg", x)
        b.ret(t)
        fn = b.finish()
        flat = FlatFunction(fn)
        live = LiveIntervals.build(fn, flat=flat)
        loops = LoopInfo.build(fn)
        assert try_region_split(fn, flat, loops, live.of(x)) is None

    def test_no_split_when_interval_entirely_inside_loop(self):
        b = IRBuilder("f")
        acc = b.const(0.0)
        with b.loop(trip_count=10):
            t = b.arith("fneg", acc)  # t lives only inside the loop
            b.arith_into(acc, "fadd", acc, t)
        b.ret(acc)
        fn = b.finish()
        flat = FlatFunction(fn)
        live = LiveIntervals.build(fn, flat=flat)
        loops = LoopInfo.build(fn)
        t_reg = next(r for r in fn.virtual_registers() if len(live.of(r).use_slots) == 1
                     and len(live.of(r).def_slots) == 1 and live.of(r).span < 6)
        assert try_region_split(fn, flat, loops, live.of(t_reg)) is None

    def test_children_weights_ordered(self):
        fn, x = self.make_split_candidate()
        flat = FlatFunction(fn)
        live = LiveIntervals.build(fn, flat=flat)
        loops = LoopInfo.build(fn)
        interval = live.of(x)
        interval.weight = 10.0
        result = try_region_split(fn, flat, loops, interval)
        hot, cold = result.children
        assert hot.weight > interval.weight > cold.weight


#: A loop whose body blocks are not contiguous in layout: the exit block
#: sits between the header and the latch block.
SCATTERED_LOOP = """
func @scattered {
block entry:
  %v0:fp = li #1.5
  %v1:fp = fneg %v0:fp
  %v2:fp = li #0.0
block header [trip=10]:
  %v2:fp = fadd %v2:fp, %v0:fp
  jmp body
block exit:
  %v3:fp = fadd %v0:fp, %v1:fp
  %v4:fp = fadd %v3:fp, %v2:fp
  ret %v4:fp
block body:
  %v2:fp = fmul %v2:fp, %v0:fp
  %v0:fp = fadd %v0:fp, %v1:fp
  br header prob=0.9
block tail:
  jmp exit
}
"""


def _runs(slots: list[int]) -> list[tuple[int, int]]:
    """Maximal runs ``[lo, hi)`` of consecutive slots."""
    runs: list[tuple[int, int]] = []
    for slot in slots:
        if runs and runs[-1][1] == slot:
            runs[-1] = (runs[-1][0], slot + 1)
        else:
            runs.append((slot, slot + 1))
    return runs


def _brute_force_split(function, flat, loop, interval):
    """The split's children and rewrites, by scanning every slot of the
    interval and every instruction of the function."""
    loop_slots = {
        slot for label in loop.body for slot in range(*flat.block_slots(label))
    }
    covered = [s for seg in interval.segments for s in range(seg.start, seg.end)]
    children = []
    for hot in (True, False):
        child = LiveInterval(None)
        for lo, hi in _runs([s for s in covered if (s in loop_slots) == hot]):
            child.add_segment(max(0, lo - 1), hi + 1)
        child.use_slots = [s for s in interval.use_slots if (s in loop_slots) == hot]
        child.def_slots = [s for s in interval.def_slots if (s in loop_slots) == hot]
        children.append(child)
    rewrites = [
        (id(instr), block.label in loop.body)
        for block in function.blocks
        for instr in block
        if interval.reg in instr.reg_uses() or interval.reg in instr.reg_defs()
    ]
    return children, rewrites


def _check_against_brute_force(fn) -> int:
    flat = FlatFunction(fn)
    live = LiveIntervals.build(fn, flat=flat)
    loops = LoopInfo.build(fn)
    splits = 0
    for vreg in fn.virtual_registers():
        interval = live.of(vreg)
        loop = _hottest_use_loop(interval, flat, loops)
        result = try_region_split(fn, flat, loops, interval)
        if result is None:
            continue
        splits += 1
        children, rewrites = _brute_force_split(fn, flat, loop, interval)
        for got, want in zip(result.children, children):
            assert got.segments == want.segments, vreg
            assert got.use_slots == want.use_slots, vreg
            assert got.def_slots == want.def_slots, vreg
        hot, cold = (child.reg for child in result.children)
        assert list(result.rewrites.items()) == [
            (instr_id, {vreg: hot if in_loop else cold})
            for instr_id, in_loop in rewrites
        ], vreg
    return splits


class TestRegionSplitMatchesBruteForce:
    def test_loop_body_not_contiguous_in_layout(self):
        fn = parse_function(SCATTERED_LOOP)
        flat = FlatFunction(fn)
        (loop,) = LoopInfo.build(fn).loops
        labels = flat.block_labels
        assert loop.body == {"header", "body"}
        assert labels.index("body") - labels.index("header") > 1
        assert _check_against_brute_force(fn) >= 1

    def test_workload_functions(self):
        from repro.workloads import specfp_suite

        splits = 0
        for program in specfp_suite(0.02, 0).programs:
            for fn in program.functions()[:2]:
                splits += _check_against_brute_force(fn)
        assert splits > 0
