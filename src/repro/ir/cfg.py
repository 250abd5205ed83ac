"""Control-flow graph, reverse postorder, dominators, and the seeded walk.

The one control-flow model of the IR.  The CFG is derived, not stored:
edges come from terminator targets plus layout fall-through.  Dominators
use the Cooper–Harvey–Kennedy iterative algorithm over reverse
postorder, which is plenty fast for the function sizes generated in this
reproduction (tens to a few hundred blocks).  :func:`walk` replays one
execution's block sequence for the interpreters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .block import BasicBlock
from .function import Function
from .instruction import OpKind


@dataclass
class CFG:
    """Control-flow graph of one function.

    Attributes:
        function: The analyzed function.
        succs: label -> successor labels (in branch order).
        preds: label -> predecessor labels (in layout order).
        fallthrough: label -> label of the next block in layout order
            (``None`` for the last block).
        rpo: Block labels in reverse postorder from the entry.  Blocks
            unreachable from the entry are excluded from ``rpo`` (and from
            dominator queries) but remain in ``succs``/``preds``.
    """

    function: Function
    succs: dict[str, list[str]] = field(default_factory=dict)
    preds: dict[str, list[str]] = field(default_factory=dict)
    fallthrough: dict[str, str | None] = field(default_factory=dict)
    rpo: list[str] = field(default_factory=list)
    _idom: dict[str, str] = field(default_factory=dict)
    _rpo_index: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, function: Function) -> "CFG":
        cfg = cls(function)
        labels = [b.label for b in function.blocks]
        cfg.fallthrough = dict(zip(labels, labels[1:] + [None]))
        cfg.succs = {label: [] for label in labels}
        cfg.preds = {label: [] for label in labels}
        for block in function.blocks:
            for succ in block.successor_labels(cfg.fallthrough[block.label]):
                cfg.succs[block.label].append(succ)
                cfg.preds[succ].append(block.label)
        cfg._compute_rpo()
        cfg._compute_dominators()
        return cfg

    # ------------------------------------------------------------------
    def _compute_rpo(self) -> None:
        if not self.function.blocks:
            return
        entry = self.function.entry.label
        visited: set[str] = set()
        postorder: list[str] = []
        # Iterative DFS to avoid recursion limits on deep loop nests.
        stack: list[tuple[str, int]] = [(entry, 0)]
        visited.add(entry)
        while stack:
            label, child_idx = stack[-1]
            children = self.succs[label]
            if child_idx < len(children):
                stack[-1] = (label, child_idx + 1)
                child = children[child_idx]
                if child not in visited:
                    visited.add(child)
                    stack.append((child, 0))
            else:
                postorder.append(label)
                stack.pop()
        self.rpo = list(reversed(postorder))
        self._rpo_index = {label: i for i, label in enumerate(self.rpo)}

    def _compute_dominators(self) -> None:
        """Cooper–Harvey–Kennedy iterative dominator computation."""
        if not self.rpo:
            return
        entry = self.rpo[0]
        idom: dict[str, str] = {entry: entry}
        changed = True
        while changed:
            changed = False
            for label in self.rpo[1:]:
                new_idom: str | None = None
                for pred in self.preds[label]:
                    if pred not in idom:
                        continue  # not yet processed / unreachable
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom.get(label) != new_idom:
                    idom[label] = new_idom
                    changed = True
        self._idom = idom

    def _intersect(self, a: str, b: str, idom: dict[str, str]) -> str:
        index = self._rpo_index
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_reachable(self, label: str) -> bool:
        return label in self._rpo_index

    def dominates(self, a: str, b: str) -> bool:
        """True when block *a* dominates block *b* (reflexive)."""
        if not self.is_reachable(a) or not self.is_reachable(b):
            return False
        entry = self.rpo[0]
        node = b
        while True:
            if node == a:
                return True
            if node == entry:
                return a == entry
            node = self._idom[node]

    def immediate_dominator(self, label: str) -> str | None:
        """Immediate dominator of *label*, or None for the entry."""
        if label == self.rpo[0]:
            return None
        return self._idom.get(label)

    def back_edges(self) -> list[tuple[str, str]]:
        """All (tail, head) edges where head dominates tail.

        These are exactly the back edges of natural loops; irreducible
        control flow (which our builders never create) would surface as
        retreating edges whose head does not dominate the tail and is
        rejected by :mod:`repro.ir.loops`.
        """
        edges = []
        for tail, heads in self.succs.items():
            if not self.is_reachable(tail):
                continue
            for head in heads:
                if self.dominates(head, tail):
                    edges.append((tail, head))
        return edges

    def block(self, label: str) -> BasicBlock:
        return self.function.block(label)


def walk(function: Function, seed: int = 0) -> Iterator[BasicBlock]:
    """The blocks one execution of *function* runs, in execution order.

    A counted loop latch (a branch tagged ``loop_latch``) returns to its
    header ``trip_count`` times per entry into the loop; any other branch
    is taken when a ``random.Random(seed)`` draw falls below its
    ``taken_prob``, standing in for input-dependent behaviour.  The walk
    ends after a returning block or at the end of the layout; callers
    that keep an execution budget stop iterating when it runs out.
    """
    fallthrough = CFG.build(function).fallthrough
    blocks = {block.label: block for block in function.blocks}
    rng = random.Random(seed)
    remaining: dict[str, int] = {}  # latch iterations left, by header label
    block = function.entry
    while True:
        yield block
        label = fallthrough[block.label]
        term = block.terminator
        if term is not None:
            if term.kind is OpKind.RET:
                return
            if term.kind is OpKind.JUMP:
                label = term.attrs["target"]
            elif term.attrs.get("loop_latch"):
                target = term.attrs["target"]
                trips = int(blocks[target].attrs.get("trip_count", 1))
                left = remaining.setdefault(target, trips - 1)
                if left > 0:
                    remaining[target] = left - 1
                    label = target
                else:
                    remaining.pop(target, None)  # reset for re-entry
            elif rng.random() < float(term.attrs.get("taken_prob", 0.5)):
                label = term.attrs["target"]
        if label is None:
            return
        block = blocks[label]
