"""Allocation output must not depend on PYTHONHASHSEED.

The DSA idft kernel historically drifted run-to-run: SDG components are
sets of :class:`VirtualRegister`, and the splitting pass picked
equal-fanout sharing centers in set-iteration (= hash) order, so the
inserted ``sdg_copy`` numbering — and with it bundling and cycle counts —
varied with the interpreter's hash seed.  ``sharing_centers`` now pins
both its iteration and its sort tie-break to register ids; this test
locks that in by running the full bpc pipeline on idft under two
different explicit hash seeds and asserting bit-identical output.

The SPECfp case covers the flat-file path the way the benchmark runs
it: a function parsed from text (through the parser's operand table),
allocated by bpc with region splits and spills on the 2-bank RV#2 file
(whose hash, and its register class's, are cached), and measured by the
dynamic estimate and the DSA model over one flow solve.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """
import sys
from repro.workloads.dsa_ops import idft_kernel
from repro.prescount.pipeline import PipelineConfig, run_pipeline
from repro.sim.machine import platform_dsa
from repro.sim.dsa import DsaMachine
from repro.sim.static_stats import analyze_static
from repro.ir.printer import print_function

rf = platform_dsa().file_for(0)
pipe = run_pipeline(idft_kernel(points=8), PipelineConfig(rf, "bpc"))
static = analyze_static(pipe.function, rf)
report = DsaMachine(rf).run(pipe.function)
print("conflicts", static.conflicts)
print("copies", pipe.copies_inserted)
print("cycles", round(report.cycles, 6))
print(print_function(pipe.function))
"""


SPECFP_SCRIPT = """
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.prescount.pipeline import PipelineConfig, run_pipeline
from repro.sim.dsa import DsaMachine
from repro.sim.dynamic import estimate_dynamic_conflicts
from repro.sim.machine import platform_rv2
from repro.sim.static_stats import analyze_static
from repro.workloads.specfp import specfp_suite

rf = platform_rv2().file_for(2)
(fn,) = [f for p in specfp_suite(0.04, 0).programs for f in p.functions()
         if f.name == "444.namd.fn2"]
pipe = run_pipeline(parse_function(print_function(fn)), PipelineConfig(rf, "bpc"))
am = pipe.analyses
print("conflicts", analyze_static(pipe.function, rf, am=am).conflicts)
print("spills", pipe.spill_count)
print("split copies", sum(
    1 for _, i in pipe.function.instructions() if i.attrs.get("split_copy")
))
print("dynamic", estimate_dynamic_conflicts(pipe.function, rf, am=am))
print("cycles", DsaMachine(rf).run(pipe.function, am=am).cycles)
print(print_function(pipe.function))
"""


def _run_under_hashseed(seed: str, script: str = SCRIPT) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_idft_output_identical_across_hash_seeds():
    out_a = _run_under_hashseed("0")
    out_b = _run_under_hashseed("1")
    assert out_a == out_b
    # Sanity: the run did real work (idft under bpc inserts split copies).
    assert "copies" in out_a and "func @idft" in out_a


def test_specfp_bpc_on_rv2_identical_across_hash_seeds():
    out_a = _run_under_hashseed("0", SPECFP_SCRIPT)
    out_b = _run_under_hashseed("1", SPECFP_SCRIPT)
    assert out_a == out_b
    # Sanity: the function spills and region-splits on 32 registers.
    assert "spills 0\n" not in out_a and "split copies 0\n" not in out_a
    assert "func @444.namd.fn2" in out_a
