"""Tests for CFG construction, reverse postorder, dominators, and the
seeded walk."""

from repro.ir import CFG, IRBuilder, parse_function
from repro.ir.cfg import walk
from tests.conftest import build_diamond_kernel, build_nested_loops


def linear_function():
    return parse_function(
        """
        func @lin {
        block entry:
          %v0:fp = li #1.0
          jmp mid
        block mid:
          %v1:fp = fneg %v0:fp
          jmp end
        block end:
          ret %v1:fp
        }
        """
    )


class TestEdges:
    def test_linear_chain(self):
        cfg = CFG.build(linear_function())
        assert cfg.succs["entry"] == ["mid"]
        assert cfg.succs["mid"] == ["end"]
        assert cfg.preds["end"] == ["mid"]
        assert cfg.succs["end"] == []

    def test_diamond_edges(self):
        fn = build_diamond_kernel()
        cfg = CFG.build(fn)
        entry_succs = cfg.succs["entry"]
        assert len(entry_succs) == 2  # branch target + fall-through

    def test_loop_has_back_edge(self):
        fn = build_nested_loops((3, 3))
        cfg = CFG.build(fn)
        edges = cfg.back_edges()
        assert len(edges) == 2  # one per loop
        for tail, head in edges:
            assert cfg.dominates(head, tail)

    def test_acyclic_has_no_back_edges(self):
        assert CFG.build(build_diamond_kernel()).back_edges() == []


class TestRpo:
    def test_entry_first(self):
        cfg = CFG.build(linear_function())
        assert cfg.rpo[0] == "entry"

    def test_rpo_covers_reachable(self):
        fn = build_nested_loops()
        cfg = CFG.build(fn)
        assert set(cfg.rpo) == {b.label for b in fn.blocks}

    def test_unreachable_excluded(self):
        fn = parse_function(
            """
            func @u {
            block entry:
              ret
            block orphan:
              ret
            }
            """
        )
        cfg = CFG.build(fn)
        assert not cfg.is_reachable("orphan")
        assert cfg.is_reachable("entry")


class TestDominators:
    def test_entry_dominates_all(self):
        fn = build_nested_loops()
        cfg = CFG.build(fn)
        for label in cfg.rpo:
            assert cfg.dominates("entry", label)

    def test_reflexive(self):
        cfg = CFG.build(linear_function())
        assert cfg.dominates("mid", "mid")

    def test_linear_chain_dominance(self):
        cfg = CFG.build(linear_function())
        assert cfg.dominates("mid", "end")
        assert not cfg.dominates("end", "mid")

    def test_diamond_arms_do_not_dominate_join(self):
        fn = build_diamond_kernel()
        cfg = CFG.build(fn)
        join = next(l for l in cfg.rpo if l.endswith(".join"))
        then = next(l for l in cfg.rpo if l.endswith(".then"))
        assert not cfg.dominates(then, join)
        assert cfg.dominates("entry", join)

    def test_immediate_dominator_of_entry_is_none(self):
        cfg = CFG.build(linear_function())
        assert cfg.immediate_dominator("entry") is None

    def test_immediate_dominator_chain(self):
        cfg = CFG.build(linear_function())
        assert cfg.immediate_dominator("end") == "mid"
        assert cfg.immediate_dominator("mid") == "entry"

    def test_loop_header_dominates_body(self):
        b = IRBuilder("f")
        acc = b.const(0.0)
        with b.loop(trip_count=2):
            with b.if_then(0.5):
                b.arith_into(acc, "fadd", acc, acc)
        fn = b.finish()
        cfg = CFG.build(fn)
        header = next(
            blk.label for blk in fn.blocks if blk.attrs.get("loop_header")
        )
        then = next(l for l in cfg.rpo if l.endswith(".then"))
        assert cfg.dominates(header, then)


class TestWalk:
    def test_counted_latch_runs_its_trip_count_per_entry(self):
        fn = build_nested_loops((3, 4))
        labels = [block.label for block in walk(fn)]
        headers = [b.label for b in fn.blocks if b.attrs.get("loop_header")]
        assert [labels.count(h) for h in headers] == [3, 12]
        assert labels[0] == "entry" and labels[-1] == fn.blocks[-1].label

    def test_branch_draws_replay_with_the_seed(self):
        b = IRBuilder("f")
        acc = b.const(0.0)
        with b.if_then(0.5):
            b.arith_into(acc, "fadd", acc, acc)
        b.ret(acc)
        fn = b.finish()
        then = next(blk.label for blk in fn.blocks if blk.label.endswith(".then"))

        def path(seed):
            return [blk.label for blk in walk(fn, seed)]

        assert all(path(seed) == path(seed) for seed in range(16))
        assert {then in path(seed) for seed in range(16)} == {True, False}
