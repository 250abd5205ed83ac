"""Golden output digests: the allocation bytes are pinned, not re-derived.

Every workload function × method × register file must produce a result
artifact whose sha256 equals the digest checked in beside this file
(``golden_digests.json``).  The pipeline has one production hot path, so
the oracle is not a second implementation but the recorded bytes: a
mismatch means a change moved an output byte.  When that change is
intended, regenerate the file (docs/PERFORMANCE.md shows the snippet)
and review the diff like any other output change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.ir import print_function
from repro.service import artifact_bytes, build_artifact
from repro.workloads import cnn_suite, dsa_suite, specfp_suite

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

METHODS = ("non", "bcr", "bpc")

#: Register files the matrix covers: the interleaved 4-bank and 2-bank
#: files, and the DSA's 2x4 bank-subgroup layout.
FILES = {
    "32x4": {"registers": 32, "banks": 4},
    "16x2": {"registers": 16, "banks": 2},
    "32x2x4": {"registers": 32, "banks": 2, "subgroups": 4},
}


def workload_functions():
    """One representative function per suite program, small ones only."""
    suites = (
        specfp_suite(scale=0.02),
        cnn_suite(scale=0.1),
        dsa_suite(idft_points=8),
    )
    picked = []
    for suite in suites:
        for program in suite.programs:
            for fn in program.functions()[:1]:
                if fn.instruction_count() <= 400:
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
