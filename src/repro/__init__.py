"""PresCount reproduction: bank-conflict-aware register allocation.

Reproduces "PresCount: Effective Register Allocation for Bank Conflict
Reduction" (CGO 2024) as a pure-Python compiler stack:

* :mod:`repro.ir` — machine IR (builder, CFG, loops, printer/parser);
* :mod:`repro.analysis` — live intervals, RIG, RCG, conflict costs
  (Eq. 1/2), bank pressure, SDG;
* :mod:`repro.banks` — banked and bank-subgroup register files (Fig. 6);
* :mod:`repro.alloc` — the greedy allocator (plus a bank-aware PBQP
  allocator), coalescing, scheduling, split/spill;
* :mod:`repro.passes` — pass manager and cached analyses with precise
  preserved-set invalidation (the Fig. 4 phases run as passes);
* :mod:`repro.prescount` — the contribution: Algorithm 1 bank assignment,
  Algorithm 2 subgroup hints, SDG splitting, the Fig. 4 pipeline;
* :mod:`repro.sim` — static conflict stats, dynamic execution, the DSA
  VLIW cycle model, platform definitions;
* :mod:`repro.workloads` — seeded SPECfp / CNN-KERNEL / DSA-OP suites;
* :mod:`repro.experiments` — regeneration of every paper table & figure.

Quickstart::

    from repro.ir import IRBuilder
    from repro.banks import BankedRegisterFile
    from repro.prescount import PipelineConfig, run_pipeline
    from repro.sim import analyze_static

    b = IRBuilder("kernel")
    x, y = b.const(1.0), b.const(2.0)
    with b.loop(trip_count=64):
        t = b.arith("fmul", x, y)
        y = b.arith("fadd", t, y)
    b.ret(y)

    rf = BankedRegisterFile(num_registers=32, num_banks=2)
    result = run_pipeline(b.finish(), PipelineConfig(rf, method="bpc"))
    print(analyze_static(result.function, rf).bank_conflicts)
"""

__version__ = "1.0.0"

from . import (
    alloc,
    analysis,
    banks,
    experiments,
    ir,
    passes,
    prescount,
    sim,
    workloads,
)

__all__ = [
    "alloc",
    "analysis",
    "banks",
    "experiments",
    "ir",
    "passes",
    "prescount",
    "sim",
    "workloads",
    "__version__",
]
