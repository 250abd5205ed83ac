#!/usr/bin/env python3
"""Every allocator in the repository on one workload, side by side.

Compares the paper's three methods (non/bcr/bpc over the greedy
allocator), the bank-aware and bank-blind PBQP formulations, and
post-allocation renumbering — on the same convolution kernel at a rich
and a tight register budget.

The non/bcr/bpc rows run the Fig. 4 pass pipeline (`run_pipeline`, a
thin builder over `FunctionPassManager` — docs/ARCHITECTURE.md); the
PBQP allocator is a standalone class driven directly.

Run:  python examples/allocator_comparison.py
"""

from repro.alloc import PbqpAllocator
from repro.banks import BankedRegisterFile
from repro.prescount import PipelineConfig, run_pipeline
from repro.prescount.post_renumber import renumber_banks
from repro.sim import analyze_static, observably_equivalent
from repro.workloads import conv2d_relu_kernel


def measure(kernel, register_file):
    """(label, conflicts, spills, copies) per approach."""
    rows = []

    for method in ("non", "bcr", "bpc"):
        result = run_pipeline(kernel, PipelineConfig(register_file, method))
        stats = analyze_static(result.function, register_file)
        assert observably_equivalent(kernel, result.function)
        rows.append(
            (f"greedy/{method}", stats.bank_conflicts, result.spill_count,
             result.copies_inserted)
        )

    # Post-allocation renumbering applied to the non result.
    non = run_pipeline(kernel, PipelineConfig(register_file, "non"))
    post = renumber_banks(non.function, register_file)
    stats = analyze_static(non.function, register_file)
    assert observably_equivalent(kernel, non.function)
    rows.append(
        ("non + post-renumber", stats.bank_conflicts, non.spill_count,
         post.copies_inserted)
    )

    for label, allocator in (
        ("pbqp (bank-aware)", PbqpAllocator(register_file)),
        ("pbqp (bank-blind)", PbqpAllocator(register_file, bank_conflict_weight=0.0)),
    ):
        result = allocator.run(kernel)
        stats = analyze_static(result.function, register_file)
        assert observably_equivalent(kernel, result.function)
        rows.append(
            (label, stats.bank_conflicts, result.spill_count,
             result.copies_inserted)
        )
    return rows


def main():
    kernel = conv2d_relu_kernel("conv_demo", channels=6, unroll=4, seed=3)
    print(f"kernel: {kernel.name}, {kernel.instruction_count()} instructions\n")
    for name, register_file in (
        ("register-rich (1024 x 2 banks)", BankedRegisterFile(1024, 2)),
        ("register-tight (32 x 2 banks)", BankedRegisterFile(32, 2)),
    ):
        print(f"--- {name} ---")
        print(f"{'approach':<20} {'conflicts':>9} {'spills':>7} {'copies':>7}")
        for label, conflicts, spills, copies in measure(kernel, register_file):
            print(f"{label:<20} {conflicts:>9} {spills:>7} {copies:>7}")
        print()
    print(
        "Every row passed the semantic-equivalence oracle; differences are\n"
        "pure allocation quality.  bpc holds conflicts at/near zero in both\n"
        "regimes; the post-allocation and PBQP alternatives pay copies or\n"
        "spills for comparable conflict counts, as the paper argues."
    )


if __name__ == "__main__":
    main()
