"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload specfp-rv2 --seed 1 --seconds 15 --trace 0

Workloads: ``specfp-rv2``, ``dsa-op``, ``serve-zipf`` (or ``all``).  The
report lines name every metric with its unit; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the
traced run (``--trace 1``, which also writes a Chrome trace under
``perfbench/out/``).  The exit code is 1 when any correctness check
failed and 2 when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import E2E_METRICS, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("specfp-rv2", "dsa-op", "serve-zipf")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "serve-zipf":
        import serve_workload

        scratch = os.path.join(OUT, f"serve-{os.getpid()}")
        return serve_workload.run(
            serve_workload.ServeWorkload(), seed, seconds, trace, SRC, scratch
        )
    import alloc_workloads

    work = alloc_workloads.specfp_rv2() if name == "specfp-rv2" else alloc_workloads.dsa_op()
    return alloc_workloads.run(work, seed, seconds, trace)


def print_report(outcome, seed: int, trace: bool) -> None:
    print(f"== {outcome.workload} (seed {seed}, trace {int(trace)})")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'failed_share':<32} {share:>16.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations and checks)")
    for note in outcome.notes:
        print(f"  note: {note}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    if not trace:
        print("  end-to-end:")
        for name, unit in E2E_METRICS.items():
            print(f"    {name:<30} {outcome.e2e[name]:>16.6g} {unit}")
        return
    print(f"  ledger (self time of one traced run, wall {outcome.ledger_wall_s:.4f} s):")
    for layer, seconds in outcome.ledger:
        share = seconds / outcome.ledger_wall_s if outcome.ledger_wall_s else 0.0
        print(f"    {layer:<30} {seconds:>12.6f} s {share:>7.1%}")
    print("  per-layer:")
    for name, unit in LAYER_METRICS.items():
        print(f"    {name:<34} {outcome.layers.get(name, 0.0):>14.6g} {unit}")


def metrics_of(outcome, trace: bool) -> dict:
    if trace:
        return {name: {"value": outcome.layers.get(name, 0.0), "unit": unit}
                for name, unit in LAYER_METRICS.items()}
    return {name: {"value": outcome.e2e[name], "unit": unit}
            for name, unit in E2E_METRICS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = bool(args.trace)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, trace)
        print_report(outcome, args.seed, trace)
        if outcome.spans is not None:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{name}-seed{args.seed}.json")
            with open(path, "w") as handle:
                json.dump(outcome.spans.chrome_trace(), handle)
            print(f"  chrome trace: {os.path.relpath(path)}")
        outcomes.append(outcome)

    if len(outcomes) == 1:
        metrics = metrics_of(outcomes[0], trace)
    else:
        metrics = {f"{o.workload}.{name}": m
                   for o in outcomes for name, m in metrics_of(o, trace).items()}
    correct = all(o.correct for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
