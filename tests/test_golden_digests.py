"""Golden output digests: the allocation bytes are pinned, not re-derived.

Every workload function × method × register file must produce a result
artifact whose sha256 equals the digest checked in beside this file
(``golden_digests.json``).  The pipeline has one production hot path, so
the oracle is not a second implementation but the recorded bytes: a
mismatch means a change moved an output byte.  When that change is
intended, regenerate the file (docs/PERFORMANCE.md shows the snippet)
and review the diff like any other output change.

The measurement models are pinned the same way
(``golden_measurements.json``): for every matrix entry, the results of
the static, dynamic, energy, DSA and OoO models over the allocated
function, and the profiler ``sites`` rows each of them emits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.ir import parse_function, print_function
from repro.obs import TRACER
from repro.prescount import PipelineConfig, run_pipeline
from repro.service import artifact_bytes, build_artifact
from repro.service.artifact import build_register_file, normalize_file_spec
from repro.sim import (
    DsaMachine,
    DynamicSimulator,
    OooConfig,
    OooMachine,
    analyze_static,
    estimate_dynamic_conflicts,
    estimate_energy,
)
from repro.workloads import cnn_suite, dsa_suite, idft_kernel, specfp_suite

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
MEASUREMENTS_PATH = Path(__file__).with_name("golden_measurements.json")

METHODS = ("non", "bcr", "bpc")

#: Register files the matrix covers: the interleaved 4-bank and 2-bank
#: files, and the DSA's 2x4 bank-subgroup layout.
FILES = {
    "32x4": {"registers": 32, "banks": 4},
    "16x2": {"registers": 16, "banks": 2},
    "32x2x4": {"registers": 32, "banks": 2, "subgroups": 4},
}

#: Beyond the matrix: bpc on the dsa-op benchmark's file and largest
#: kernel, the only pinned input on which SDG splitting refuses cuts.
DSA_OP_KEY = "bpc 1024x2x4 DSA-OP/idft-16"
DSA_OP_FILE = {"registers": 1024, "banks": 2, "subgroups": 4}


def workload_functions():
    """One representative function per suite program.

    The DSA-OP ones include tr15651 (1215 instructions) and idft at 8
    points (690), where SDG splitting makes output-sharing cuts.
    """
    suites = (
        specfp_suite(scale=0.02),
        cnn_suite(scale=0.1),
        dsa_suite(idft_points=8),
    )
    picked = []
    for suite in suites:
        for program in suite.programs:
            for fn in program.functions()[:1]:
                picked.append((f"{suite.name}/{program.name}", fn))
    return picked


def compute_digests(methods=METHODS) -> dict[str, str]:
    """``{"<method> <file> <workload>": sha256 of the artifact bytes}``."""
    digests = {}
    for label, fn in workload_functions():
        ir = print_function(fn)
        for method in methods:
            for file_name, spec in FILES.items():
                data = artifact_bytes(build_artifact(ir, spec, method))
                key = f"{method} {file_name} {label}"
                digests[key] = hashlib.sha256(data).hexdigest()
    if "bpc" in methods:
        ir = print_function(idft_kernel(points=16))
        data = artifact_bytes(build_artifact(ir, DSA_OP_FILE, "bpc"))
        digests[DSA_OP_KEY] = hashlib.sha256(data).hexdigest()
    return digests


def _golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("method", METHODS)
def test_artifacts_match_golden_digests(method):
    golden = {
        key: digest
        for key, digest in _golden().items()
        if key.split(" ", 1)[0] == method
    }
    produced = compute_digests(methods=(method,))
    assert produced.keys() == golden.keys()
    moved = sorted(key for key in produced if produced[key] != golden[key])
    assert not moved, f"{len(moved)} artifacts moved: {moved[:5]}"


#: OoO points pinned beside the in-order models: the parity anchor, the
#: one-port width-4 sweep point, and the default configuration.
OOO_CONFIGS = {
    "degenerate": OooConfig.degenerate(),
    "w4p1": OooConfig(issue_width=4, read_ports=1),
    "default": OooConfig(),
}


def measurement_models(register_file, am) -> dict:
    """``{name: run(function)}`` for every measurement model."""
    models = {
        "static": lambda f: analyze_static(f, register_file, am=am),
        "dynamic-estimate": lambda f: estimate_dynamic_conflicts(
            f, register_file, am=am
        ),
        "interpreter": DynamicSimulator(
            register_file, max_instructions=20_000
        ).run,
        "dsa": lambda f: DsaMachine(register_file).run(f, am=am),
        "energy": lambda f: estimate_energy(f, register_file),
    }
    for name, config in OOO_CONFIGS.items():
        machine = OooMachine(register_file, config=config)
        models[f"ooo-{name}"] = lambda f, m=machine: m.run(f, am=am)
    return models


def measure(function, register_file, am) -> dict:
    """Each model's result, and the ``sites`` rows it emits when the
    profile view is on."""
    results = {}
    for name, run in measurement_models(register_file, am).items():
        results[name] = dataclasses.asdict(run(function))
        TRACER.enable(views=("profile",))
        try:
            run(function)
            results[f"{name} sites"] = [
                row
                for span in TRACER.spans
                if span["name"] == "sites" and span["cat"] == "event"
                for row in span["args"]["rows"]
            ]
        finally:
            TRACER.enable(False, views=())
            TRACER.reset()
    return results


def compute_measurement_digests(methods=METHODS) -> dict[str, str]:
    """``{"<method> <file> <workload>": sha256 of the measurements}``.

    Each matrix entry's pipeline runs as :func:`build_artifact` runs it,
    and the models measure the allocated function in memory (a printed
    artifact drops spill tags).  The digest is over canonical JSON, whose
    floats are written with ``repr``.
    """
    digests = {}
    for label, fn in workload_functions():
        ir = print_function(fn)
        for method in methods:
            for file_name, spec in FILES.items():
                register_file = build_register_file(normalize_file_spec(spec))
                pipe = run_pipeline(
                    parse_function(ir), PipelineConfig(register_file, method)
                )
                results = measure(pipe.function, register_file, pipe.analyses)
                data = json.dumps(results, sort_keys=True, separators=(",", ":"))
                key = f"{method} {file_name} {label}"
                digests[key] = hashlib.sha256(data.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("method", METHODS)
def test_measurements_match_golden_digests(method):
    with open(MEASUREMENTS_PATH, encoding="utf-8") as fh:
        golden = {
            key: digest
            for key, digest in json.load(fh).items()
            if key.split(" ", 1)[0] == method
        }
    produced = compute_measurement_digests(methods=(method,))
    assert produced.keys() == golden.keys()
    moved = sorted(key for key in produced if produced[key] != golden[key])
    assert not moved, f"{len(moved)} measurements moved: {moved[:5]}"
