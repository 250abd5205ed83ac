"""Flat-array IR core: the hot-path representation of a function.

Every phase of the PresCount pipeline conceptually needs the same small
set of facts about a function — which registers each instruction reads
and writes, in which block, at which slot — yet the object-graph API
recomputes them by chasing ``Instruction`` tuples and hashing frozen
dataclasses on every query.  :class:`FlatFunction` lowers a function
once into *interned integer ids* and flat arrays:

* registers are interned to dense ``rid`` ints (``regs[rid]`` raises
  back to the original object, ``reg_names[rid]`` to its printed name —
  the id→name table the observability layers use so listings and audit
  records keep showing ``%v5``, never a bare ``rid``);
* use/def operands are CSR arrays (``use_start``/``use_ids``) indexed by
  instruction ordinal, preserving operand order and duplicates exactly
  as :meth:`Instruction.reg_uses`/``reg_defs`` report them;
* distinct bankable reads get their own CSR (``bank_start``/``bank_ids``)
  mirroring :meth:`Instruction.bankable_reads` dedup order;
* blocks become index ranges over the ordinal sequence plus successor
  index lists mirroring :meth:`BasicBlock.successor_labels`;
* liveness is computed as per-block big-int bitmasks over rids (a
  drop-in for the frozenset dataflow solve — same fixpoint, ~100x less
  allocation).

This is the only production path: the analysis manager hands one
lowering to every hot analysis, the scheduler and the coalescer.  The
object-graph analysis bodies (``X.build(fn)`` without ``flat=``) stay as
the reference implementation the differential tests compare against.

Coverage bitmasks: a slot range ``[start, end)`` maps to the integer
``(1 << end) - (1 << start)``; interval overlap becomes a single ``&``.
Python's arbitrary-precision ints make this exact at any function size.
"""

from __future__ import annotations

from .types import VirtualRegister

__all__ = ["FlatFunction", "iter_bits"]


def iter_bits(mask: int):
    """Yield set bit positions of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


class FlatFunction:
    """One-shot lowering of a :class:`~repro.ir.function.Function`.

    Instances are immutable snapshots: any mutation of the underlying
    function invalidates them (the :class:`FlatIRAnalysis` wrapper makes
    the analysis manager enforce exactly that).  Instruction identity is
    preserved — ``ordinal_of[id(instr)]`` stays valid while the same
    ``Instruction`` objects live, even if blocks are reordered, which is
    what lets the scheduler reuse one lowering across block permutations.
    """

    __slots__ = (
        "function",
        "regs",
        "reg_ids",
        "reg_names",
        "reg_virtual",
        "instrs",
        "ordinal_of",
        "kinds",
        "inst_block",
        "use_start",
        "use_ids",
        "def_start",
        "def_ids",
        "bank_start",
        "bank_ids",
        "block_labels",
        "block_index",
        "block_bounds",
        "block_succ",
        "num_slots",
        "_live",
        "_uses_of",
    )

    def __init__(self, function):
        self.function = function
        regs: list = []
        reg_ids: dict = {}
        reg_names: list[str] = []
        reg_virtual: list[bool] = []
        instrs: list = []
        ordinal_of: dict[int, int] = {}
        kinds: list = []
        inst_block: list[int] = []
        use_start = [0]
        use_ids: list[int] = []
        def_start = [0]
        def_ids: list[int] = []
        bank_start = [0]
        bank_ids: list[int] = []
        block_labels: list[str] = []
        block_index: dict[str, int] = {}
        block_bounds: list[tuple[int, int]] = []

        def intern(reg) -> int:
            rid = reg_ids.get(reg)
            if rid is None:
                rid = len(regs)
                reg_ids[reg] = rid
                regs.append(reg)
                reg_names.append(reg.name)
                reg_virtual.append(isinstance(reg, VirtualRegister))
            return rid

        for bi, block in enumerate(function.blocks):
            block_index[block.label] = bi
            block_labels.append(block.label)
            start = len(instrs)
            for instr in block.instructions:
                ordinal_of[id(instr)] = len(instrs)
                instrs.append(instr)
                kinds.append(instr.kind)
                inst_block.append(bi)
                bank_seen: set[int] = set()
                for use in instr.reg_uses():
                    rid = intern(use)
                    use_ids.append(rid)
                    if use.regclass.bankable and rid not in bank_seen:
                        bank_seen.add(rid)
                        bank_ids.append(rid)
                for dreg in instr.reg_defs():
                    def_ids.append(intern(dreg))
                use_start.append(len(use_ids))
                def_start.append(len(def_ids))
                bank_start.append(len(bank_ids))
            block_bounds.append((start, len(instrs)))

        # Successor block indices, mirroring BasicBlock.successor_labels
        # (fall-through to the next block in layout order).
        block_succ: list[list[int]] = []
        for bi, block in enumerate(function.blocks):
            next_label = (
                block_labels[bi + 1] if bi + 1 < len(block_labels) else None
            )
            succs = []
            for label in block.successor_labels(next_label):
                target = block_index.get(label)
                if target is not None:
                    succs.append(target)
            block_succ.append(succs)

        self.regs = regs
        self.reg_ids = reg_ids
        self.reg_names = reg_names
        self.reg_virtual = reg_virtual
        self.instrs = instrs
        self.ordinal_of = ordinal_of
        self.kinds = kinds
        self.inst_block = inst_block
        self.use_start = use_start
        self.use_ids = use_ids
        self.def_start = def_start
        self.def_ids = def_ids
        self.bank_start = bank_start
        self.bank_ids = bank_ids
        self.block_labels = block_labels
        self.block_index = block_index
        self.block_bounds = block_bounds
        self.block_succ = block_succ
        self.num_slots = 2 * len(instrs)
        self._live = None
        self._uses_of = None

    # ------------------------------------------------------------------
    @property
    def num_regs(self) -> int:
        return len(self.regs)

    def name_of(self, rid: int) -> str:
        """Original printed name of an interned register id.

        The raising shim for anything user-facing: profiler listings and
        audit records must render ``%v5``/``$fp3``, never a bare rid.
        """
        return self.reg_names[rid]

    def bank_reads(self, ordinal: int, regclass=None) -> list[int]:
        """Distinct bankable-read rids of one instruction, operand order.

        With *regclass* the list is filtered to that class — dedup before
        filter equals :meth:`Instruction.bankable_reads`' filter-before-
        dedup because dedup keeps first occurrences either way.
        """
        ids = self.bank_ids[self.bank_start[ordinal]: self.bank_start[ordinal + 1]]
        if regclass is None:
            return ids
        regs = self.regs
        return [rid for rid in ids if regs[rid].regclass == regclass]

    # ------------------------------------------------------------------
    def liveness_masks(self):
        """Per-block ``(gen, kill, live_in, live_out)`` rid bitmasks.

        The same backward dataflow fixpoint as
        :meth:`repro.analysis.liveness.Liveness.build`, over int
        bitmasks instead of frozensets; cached after the first call.
        """
        if self._live is None:
            nblocks = len(self.block_labels)
            gen = [0] * nblocks
            kill = [0] * nblocks
            use_start, use_ids = self.use_start, self.use_ids
            def_start, def_ids = self.def_start, self.def_ids
            for b in range(nblocks):
                start, end = self.block_bounds[b]
                g = 0
                k = 0
                for i in range(start, end):
                    for j in range(use_start[i], use_start[i + 1]):
                        bit = 1 << use_ids[j]
                        if not k & bit:
                            g |= bit
                    for j in range(def_start[i], def_start[i + 1]):
                        k |= 1 << def_ids[j]
                gen[b] = g
                kill[b] = k
            live_in = [0] * nblocks
            live_out = [0] * nblocks
            succs = self.block_succ
            changed = True
            while changed:
                changed = False
                for b in range(nblocks - 1, -1, -1):
                    out = 0
                    for s in succs[b]:
                        out |= live_in[s]
                    new_in = gen[b] | (out & ~kill[b])
                    if out != live_out[b] or new_in != live_in[b]:
                        live_out[b] = out
                        live_in[b] = new_in
                        changed = True
            self._live = (gen, kill, live_in, live_out)
        return self._live

    # ------------------------------------------------------------------
    def uses_of_reg(self) -> list[list[int]]:
        """rid -> ordinals of instructions that use *or* define it.

        Built lazily; the coalescer uses it to rewrite only the
        instructions a merge actually touches.
        """
        if self._uses_of is None:
            touched: list[list[int]] = [[] for _ in self.regs]
            use_start, use_ids = self.use_start, self.use_ids
            def_start, def_ids = self.def_start, self.def_ids
            for i in range(len(self.instrs)):
                last = -1
                for j in range(use_start[i], use_start[i + 1]):
                    rid = use_ids[j]
                    if rid != last:
                        lst = touched[rid]
                        if not lst or lst[-1] != i:
                            lst.append(i)
                    last = rid
                for j in range(def_start[i], def_start[i + 1]):
                    lst = touched[def_ids[j]]
                    if not lst or lst[-1] != i:
                        lst.append(i)
            self._uses_of = touched
        return self._uses_of
