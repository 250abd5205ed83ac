"""Cache correctness: key discrimination, bit-identical hits, layers."""

from __future__ import annotations

import json

import pytest

from repro.banks import BankedRegisterFile
from repro.ir import print_function
from repro.prescount import PipelineConfig, run_pipeline
from repro.service import (
    AllocationCache,
    RequestError,
    artifact_bytes,
    build_artifact,
    cache_key,
    canonical_ir,
)
from repro.service.cache import DISK_FORMAT, _unframe
from repro.sim import analyze_static

from .conftest import build_mac_kernel

FILE = {"registers": 32, "banks": 2}


@pytest.fixture
def ir() -> str:
    return print_function(build_mac_kernel())


# ----------------------------------------------------------------------
# Key definition
# ----------------------------------------------------------------------
def test_key_is_stable_and_whitespace_insensitive(ir):
    key = cache_key(ir, FILE, "bpc")
    assert key == cache_key(ir, FILE, "bpc")
    ragged = "\n".join("  " + line + "   ; a comment" for line in ir.splitlines())
    assert cache_key(ragged, FILE, "bpc") == key


def test_key_changes_with_ir_config_method_flags(ir):
    base = cache_key(ir, FILE, "bpc")
    other_ir = print_function(build_mac_kernel(trip_count=32))
    assert cache_key(other_ir, FILE, "bpc") != base
    assert cache_key(ir, {"registers": 32, "banks": 4}, "bpc") != base
    assert cache_key(ir, {"registers": 16, "banks": 2}, "bpc") != base
    assert cache_key(ir, {"registers": 32, "banks": 2, "subgroups": 4}, "bpc") != base
    assert cache_key(ir, FILE, "bcr") != base
    assert cache_key(ir, FILE, "non") != base
    assert cache_key(ir, FILE, "bpc", {"thres_ratio": 0.5}) != base


def test_default_flags_hash_like_empty_flags(ir):
    explicit = {"run_coalescing": True, "thres_ratio": 0.8}
    assert cache_key(ir, FILE, "bpc", explicit) == cache_key(ir, FILE, "bpc")
    assert cache_key(ir, FILE, "bpc", {}) == cache_key(ir, FILE, "bpc", None)


#: bpc on the DSA reduce kernel: the default request's key on the 2x4
#: bank-subgroup file and on the flat 32x2 file.
REDUCE_DEFAULT_KEYS = {
    "subgroup": (
        {"registers": 64, "banks": 2, "subgroups": 4},
        "937e683467a759299357b077b77511cc843d34f64a5ee0707491c9bf3465f8d5",
    ),
    "flat": (
        {"registers": 32, "banks": 2},
        "4c10a0f031654789bd09565497d7916f2dd79b9dd928a69fdd4d3e8df6686ed2",
    ),
}


@pytest.mark.parametrize("kind", sorted(REDUCE_DEFAULT_KEYS))
def test_strict_banks_shares_the_key_where_it_cannot_change_the_result(kind):
    """An explicit false is the pipeline's default everywhere, and the
    DSA policy of a subgroup file never reads the flag; a true on a flat
    file restricts bpc's candidates, so it keeps its own key."""
    from repro.service import normalize_request
    from repro.workloads import reduce_kernel

    spec, default_key = REDUCE_DEFAULT_KEYS[kind]
    ir = print_function(reduce_kernel())
    keys = {}
    for name, flags in (("absent", None), ("false", {"strict_banks": False}),
                        ("true", {"strict_banks": True})):
        request = {"ir": ir, "file": spec, "method": "bpc"}
        if flags is not None:
            request["flags"] = flags
        normalized = normalize_request(request)
        artifact = build_artifact(reduce_kernel(), spec, "bpc", flags)
        assert artifact["key"] == normalized["key"]
        assert artifact["flags"] == normalized["flags"]
        keys[name] = normalized["key"]
    assert keys["absent"] == default_key
    assert keys["false"] == default_key
    if kind == "subgroup":
        assert keys["true"] == default_key
    else:
        assert keys["true"] != default_key


def test_bad_requests_raise(ir):
    with pytest.raises(RequestError):
        cache_key("not ir at all", FILE, "bpc")
    with pytest.raises(RequestError):
        cache_key(ir, FILE, "fastest")
    with pytest.raises(RequestError):
        cache_key(ir, {"registers": 32, "lanes": 9}, "bpc")
    with pytest.raises(RequestError):
        cache_key(ir, FILE, "bpc", {"turbo": True})
    with pytest.raises(RequestError):
        canonical_ir("func @x {")


# ----------------------------------------------------------------------
# Artifact schema
# ----------------------------------------------------------------------
def test_artifact_matches_direct_pipeline_run(ir):
    artifact = build_artifact(ir, FILE, "bpc")
    register_file = BankedRegisterFile(32, 2)
    pipe = run_pipeline(build_mac_kernel(), PipelineConfig(register_file, "bpc"))
    static = analyze_static(pipe.function, register_file, am=pipe.analyses)
    assert artifact["ir"] == print_function(pipe.function)
    assert artifact["stats"]["spills"] == pipe.spill_count
    assert artifact["stats"]["bank_conflicts"] == static.bank_conflicts
    assert artifact["key"] == cache_key(ir, FILE, "bpc")
    # Canonical bytes round-trip and are deterministic.
    data = artifact_bytes(artifact)
    assert json.loads(data) == artifact
    assert artifact_bytes(build_artifact(ir, FILE, "bpc")) == data


# ----------------------------------------------------------------------
# Cache layers
# ----------------------------------------------------------------------
def test_hit_after_miss_is_bit_identical(ir):
    cache = AllocationCache()
    key = cache_key(ir, FILE, "bpc")
    assert cache.get(key) is None
    cold = artifact_bytes(build_artifact(ir, FILE, "bpc"))
    cache.put(key, cold)
    assert cache.get(key) == cold
    assert cache.stats() == {
        "entries": 1,
        "hits": 1,
        "misses": 1,
        "quarantined": 0,
        "disk_write_errors": 0,
    }


def test_disk_layer_round_trips_and_survives_restart(tmp_path, ir):
    key = cache_key(ir, FILE, "non")
    data = artifact_bytes(build_artifact(ir, FILE, "non"))
    cache = AllocationCache(cache_dir=str(tmp_path))
    cache.put(key, data)
    # On disk the payload sits behind a checksummed header frame.
    raw = (tmp_path / key[:2] / f"{key}.json").read_bytes()
    assert raw.startswith(DISK_FORMAT + b" ")
    assert raw.endswith(data)
    assert _unframe(raw) == data
    # A fresh instance over the same directory serves the same bytes.
    reopened = AllocationCache(cache_dir=str(tmp_path))
    assert reopened.get(key) == data
    assert key in reopened


def test_lru_eviction_keeps_most_recent():
    cache = AllocationCache(max_entries=2)
    cache.put("a" * 64, b"1")
    cache.put("b" * 64, b"2")
    assert cache.get("a" * 64) == b"1"  # refresh a
    cache.put("c" * 64, b"3")  # evicts b
    assert cache.get("b" * 64) is None
    assert cache.get("a" * 64) == b"1"
    assert cache.get("c" * 64) == b"3"
    assert len(cache) == 2
