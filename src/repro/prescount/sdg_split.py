"""SDG-based subgroup splitting (Figs. 8 and 9 of the paper).

Large SDG components defeat the balanced subgroup assignment of
Algorithm 2: one component charging a single displacement with dozens of
registers starves the other subgroups.  This pass cuts oversized
components at their *sharing centers* by inserting copy instructions:

* **Input sharing** (Fig. 8): a register read by many aligned
  instructions (high SDG out-degree).  A copy ``a' = mov a`` is inserted
  and the later half of the readers is rewritten to read ``a'``.
* **Output sharing** (Fig. 9): a reduction-style register written by many
  aligned instructions (high SDG in-degree).  The earlier half of the
  writers is rewritten to accumulate into a fresh ``a'`` and a copy
  ``a = mov a'`` re-seeds the original at the cut point.

Copies are tagged ``sdg_copy`` so register coalescing (which runs
*before* this pass in the Fig. 4 pipeline) can never re-merge them.
The pass iterates until every component is small enough or no further
safe cut exists.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from ..analysis.sdg import SameDisplacementGraph
from ..ir import instruction as ins
from ..ir.flat import FlatFunction
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.types import FP, Register, RegClass, VirtualRegister
from ..passes import CFG_ONLY, AnalysisManager, FlatIRAnalysis, SDGAnalysis


@dataclass
class SdgSplitConfig:
    """Tunables of the splitting heuristic.

    Attributes:
        fanout_threshold: Minimum in/out degree for a vertex to count as a
            sharing center (Fig. 8 splits at fanout 6 with threshold ~4).
        max_component_size: Components at or below this size are left
            alone.  The pipeline derives the default from the register
            file: one bank's share of a subgroup
            (``registers_per_bank / num_subgroups``) — splitting is only
            *necessary* when a component cannot balance across subgroups.
        max_rounds: Upper bound on split iterations per function; large
            shared-input kernels (idft) need many cuts.
    """

    fanout_threshold: int = 4
    max_component_size: int = 128
    max_rounds: int = 256


@dataclass
class SdgSplitResult:
    """Statistics of a splitting run."""

    copies_inserted: int = 0
    rounds: int = 0
    splits: list[tuple[str, int]] = field(default_factory=list)  # (kind, fanout)


def split_subgroups(
    function: Function,
    regclass: RegClass | None = FP,
    config: SdgSplitConfig | None = None,
    am: AnalysisManager | None = None,
) -> SdgSplitResult:
    """Split oversized SDG components of *function* in place.

    The per-round SDG comes from *am* (created on demand); rounds that cut
    invalidate all but the CFG-level analyses, so the final no-cut round
    leaves a cached SDG that matches the function — Algorithm 2's subgroup
    state construction reuses it for free.
    """
    from ..obs import TRACER

    config = config or SdgSplitConfig()
    if am is None:
        am = AnalysisManager(function)
    result = SdgSplitResult()
    for _round in range(config.max_rounds):
        with TRACER.span(
            "sdg-round", category="stage", function=function.name, round=_round
        ):
            sdg = am.get(SDGAnalysis, regclass=regclass)
            oversized = [
                comp
                for comp in sdg.components()
                if len(comp) > config.max_component_size
            ]
            if not oversized:
                break
            result.rounds += 1
            index = _AlignedAccessIndex(am.get(FlatIRAnalysis))
            progressed = False
            for component in oversized:
                centers = sdg.sharing_centers(component, config.fanout_threshold)
                # Cut several centers per round: each cut updates the index
                # to the live function, so sequential cuts compose safely,
                # and big shared-input kernels (idft) converge in few SDG
                # rebuilds.  The SDG itself stays the round's snapshot: its
                # node order fixes the cut order and the new vreg numbers.
                cuts = 0
                for center, kind, fanout in centers:
                    if kind == "input_sharing":
                        done = _split_input_sharing(function, index, center)
                    else:
                        done = _split_output_sharing(function, index, center)
                    if done:
                        result.copies_inserted += 1
                        result.splits.append((kind, fanout))
                        progressed = True
                        cuts += 1
                        if cuts >= 8:
                            break  # re-analyze before cutting further
            if progressed:
                am.invalidate(CFG_ONLY)
            else:
                break
    TRACER.note(**{
        "sdg.copies_inserted": result.copies_inserted,
        "sdg.rounds": result.rounds,
    })
    return result


# ----------------------------------------------------------------------
class _AlignedAccessIndex:
    """Each register's aligned readers and aligned writers, per block.

    An access is *aligned* under the SDG's own filter,
    ``needs_alignment(instr, None)``: a reader holds the register in
    ``bankable_reads()``, a writer in ``vreg_defs()``.  The index is
    built once per cutting round from the round's flat lowering.

    Instructions are named by *coordinate*: their index in the block when
    the round began.  A cut keeps coordinates valid because it touches a
    single block, rewrites instructions in place (only the cut register
    changes, to a fresh one: :meth:`rename`), and inserts one COPY, which
    is never aligned, so it joins no list; the index only remembers where
    it went (:meth:`insert_copy`) to map coordinates back to live
    positions.
    """

    def __init__(self, flat: FlatFunction):
        self.function = flat.function
        regs = flat.regs
        self.readers: list[dict[Register, list[int]]] = []
        self.writers: list[dict[Register, list[int]]] = []
        #: Per block, sorted: ``2c - 1`` for a copy inserted before the
        #: instruction at coordinate ``c``, ``2c + 1`` for one after it.
        self._copies: list[list[int]] = []
        for start, end in flat.block_bounds:
            readers: dict[Register, list[int]] = {}
            writers: dict[Register, list[int]] = {}
            for ordinal in range(start, end):
                aligned = SameDisplacementGraph.flat_alignment(flat, ordinal)
                if aligned is None:
                    continue
                reads, writes = aligned
                coordinate = ordinal - start
                for rid in reads:
                    readers.setdefault(regs[rid], []).append(coordinate)
                for rid in dict.fromkeys(writes):
                    writers.setdefault(regs[rid], []).append(coordinate)
            self.readers.append(readers)
            self.writers.append(writers)
            self._copies.append([])

    @staticmethod
    def accesses(
        table: list[dict[Register, list[int]]], reg: Register
    ) -> list[tuple[int, int]]:
        """``(block, coordinate)`` of every entry of *reg* in *table*
        (:attr:`readers` or :attr:`writers`), in layout order."""
        return [
            (b, coordinate)
            for b, entries in enumerate(table)
            for coordinate in entries.get(reg, ())
        ]

    @staticmethod
    def rename(
        table: list[dict[Register, list[int]]],
        b: int,
        old: Register,
        new: Register,
        coordinates: list[int],
    ) -> None:
        """The instructions at *coordinates* of block *b* now access the
        fresh register *new* where they accessed *old*."""
        moved = set(coordinates)
        entries = table[b].get(old, [])
        table[b][old] = [c for c in entries if c not in moved]
        table[b][new] = [c for c in entries if c in moved]

    def position(self, b: int, coordinate: int) -> int:
        """Live index in block *b* of the instruction at *coordinate*."""
        return coordinate + bisect_left(self._copies[b], 2 * coordinate)

    def insert_copy(
        self, b: int, coordinate: int, copy: Instruction, after: bool
    ) -> None:
        """Insert *copy* into block *b* right before, or right *after*,
        the instruction at *coordinate*."""
        at = self.position(b, coordinate) + (1 if after else 0)
        self.function.blocks[b].insert(at, copy)
        insort(self._copies[b], 2 * coordinate + (1 if after else -1))


def _split_input_sharing(
    function: Function, index: _AlignedAccessIndex, center: VirtualRegister
) -> bool:
    """Cut a high-out-degree center: later readers switch to a copy."""
    readers = index.accesses(index.readers, center)
    if len(readers) < 2:
        return False
    second_half = readers[len(readers) // 2:]
    b, first = second_half[0]
    last = second_half[-1][1]

    # Safety 1: the copy must dominate every rewritten reader on every
    # path.  Requiring all rewritten readers to share the insertion
    # block guarantees that without a dominance computation — and matches
    # where sharing centers actually occur (unrolled straight-line
    # bodies).  A reader inside a conditional arm would otherwise leave
    # the clone undefined on the not-taken path.
    if any(where != b for where, __ in second_half):
        return False

    # Safety 2: the clone snapshots the center's value at the cut point,
    # so the center must not be redefined while the clone is consumed.
    instructions = function.blocks[b].instructions
    span = instructions[index.position(b, first): index.position(b, last) + 1]
    if any(center in instr.reg_defs() for instr in span):
        return False

    clone = function.new_vreg(center.regclass)
    # Rewrite the later readers to the clone.
    mapping = {center: clone}
    coordinates = [c for __, c in second_half]
    for c in coordinates:
        at = index.position(b, c)
        instructions[at] = instructions[at].rewrite(mapping)
    index.rename(index.readers, b, center, clone, coordinates)
    # Insert the copy right before the first rewritten reader.
    copy = ins.copy(clone, center, sdg_copy=True)
    index.insert_copy(b, first, copy, after=False)
    return True


def _split_output_sharing(
    function: Function, index: _AlignedAccessIndex, center: VirtualRegister
) -> bool:
    """Cut a high-in-degree (reduction) center: earlier writers accumulate
    into a fresh register that is copied back at the cut point."""
    writers = index.accesses(index.writers, center)
    if len(writers) < 2:
        return False
    first_half = writers[: len(writers) // 2]
    b, first = first_half[0]
    last = first_half[-1][1]

    # Safety 0: the rewritten writers and the copy-back must execute
    # unconditionally together — keep the cut inside one block (see the
    # input-sharing dominance note).
    if any(where != b for where, __ in first_half):
        return False

    # Safety: between the first and last rewritten writer, the center must
    # only be touched by the rewritten writers themselves (otherwise an
    # interleaved reader would observe the wrong register).
    instructions = function.blocks[b].instructions
    coordinates = [c for __, c in first_half]
    first_at = index.position(b, first)
    rewritten = {index.position(b, c) for c in coordinates}
    for at in range(first_at, index.position(b, last) + 1):
        if at in rewritten:
            continue
        instr = instructions[at]
        if center in instr.reg_uses() or center in instr.reg_defs():
            return False

    partial = function.new_vreg(center.regclass)
    mapping = {center: partial}
    # Seed the partial accumulator from the center's current value:
    # rewrite only the first writer's def, keep the center as input
    # (`partial = op center, x`), so the non-ARITH initializer of the
    # center still feeds the chain.
    seed = instructions[first_at]
    seeded = seed.rewrite(mapping)
    instructions[first_at] = Instruction(
        seeded.opcode, seeded.kind, seeded.defs, seed.uses, seeded.attrs
    )
    for c in coordinates[1:]:
        at = index.position(b, c)
        instructions[at] = instructions[at].rewrite(mapping)
    index.rename(index.writers, b, center, partial, coordinates)
    index.rename(index.readers, b, center, partial, coordinates[1:])
    # Copy the partial result back into the center after the last
    # rewritten writer.
    copy = ins.copy(center, partial, sdg_copy=True)
    index.insert_copy(b, last, copy, after=True)
    return True
