"""Machine-model threading through the service: keys, artifacts, verify.

The back-compat contract is load-bearing: a request that omits
``machine`` (or spells out the default ``dsa``) must hash to the exact
key a pre-machine-aware service computed, so every cached artifact and
every checked-in baseline stays valid.  Non-default machines get their
own content addresses — artifacts can never alias across models.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.ir import print_function
from repro.resilience import AllocationVerifier
from repro.service import AllocationService, RequestError, ServiceConfig
from repro.service.artifact import (
    SCHEMA_VERSION,
    artifact_bytes,
    build_artifact,
    build_module_artifact,
    cache_key,
    canonical_ir,
    canonical_json,
    module_cache_key,
    normalize_flags,
    normalize_request,
)

from .conftest import build_mac_kernel

FILE = {"registers": 32, "banks": 2}


@pytest.fixture(scope="module")
def ir():
    return print_function(build_mac_kernel(trip_count=8))


def request_for(ir, **extra):
    body = {"ir": ir, "file": dict(FILE), "method": "bpc"}
    body.update(extra)
    return body


class TestKeys:
    def test_default_machine_never_changes_the_key(self, ir):
        base = cache_key(ir, FILE, "bpc")
        assert cache_key(ir, FILE, "bpc", machine=None) == base
        assert cache_key(ir, FILE, "bpc", machine="dsa") == base
        assert cache_key(ir, FILE, "bpc", machine={"model": "dsa"}) == base

    def test_default_key_matches_pre_machine_payload(self, ir):
        """The exact pre-machine hash recipe still produces the key."""
        legacy_payload = {
            "schema": SCHEMA_VERSION,
            "ir": canonical_ir(ir),
            "file": {"registers": 32, "banks": 2, "subgroups": 0},
            "method": "bpc",
            "flags": normalize_flags(None),
        }
        legacy = hashlib.sha256(
            canonical_json(legacy_payload).encode("utf-8")
        ).hexdigest()
        assert cache_key(ir, FILE, "bpc") == legacy

    def test_ooo_machines_get_distinct_keys(self, ir):
        base = cache_key(ir, FILE, "bpc")
        default_ooo = cache_key(ir, FILE, "bpc", machine="ooo")
        wide = cache_key(
            ir, FILE, "bpc", machine={"model": "ooo", "issue_width": 4}
        )
        no_rename = cache_key(
            ir, FILE, "bpc", machine={"model": "ooo", "rename": False}
        )
        assert len({base, default_ooo, wide, no_rename}) == 4

    def test_equivalent_specs_hash_identically(self, ir):
        spelled = cache_key(
            ir, FILE, "bpc",
            machine={"model": "ooo", "issue_width": 2, "read_ports": 2,
                     "rob_size": 32, "iq_size": 16, "rename": True},
        )
        assert spelled == cache_key(ir, FILE, "bpc", machine="ooo")

    def test_module_keys_discriminate_too(self, ir):
        mod = ir + "\n" + ir.replace("@mac", "@mac2")
        assert module_cache_key(mod, FILE, "bpc") != module_cache_key(
            mod, FILE, "bpc", machine="ooo"
        )

    def test_bad_machine_is_a_request_error(self, ir):
        with pytest.raises(RequestError):
            cache_key(ir, FILE, "bpc", machine="vliw")
        with pytest.raises(RequestError):
            normalize_request(request_for(ir, machine={"model": "dsa", "x": 1}))


class TestNormalizeRequest:
    def test_machine_defaults_and_round_trips(self, ir):
        normalized = normalize_request(request_for(ir))
        assert normalized["machine"] == {"model": "dsa"}
        assert normalized["key"] == cache_key(ir, FILE, "bpc")

    def test_machine_spec_normalizes_into_the_key(self, ir):
        normalized = normalize_request(request_for(ir, machine="ooo"))
        assert normalized["machine"]["issue_width"] == 2
        assert normalized["key"] == cache_key(ir, FILE, "bpc", machine="ooo")
        # Idempotent: feeding the canonical spec back reproduces the key.
        again = normalize_request(
            request_for(ir, machine=normalized["machine"])
        )
        assert again["key"] == normalized["key"]


class TestArtifacts:
    def test_default_artifact_is_machine_free(self, ir):
        artifact = build_artifact(ir, FILE, "bpc")
        assert "machine" not in artifact
        assert "cycles" not in artifact["stats"]

    def test_ooo_artifact_carries_spec_and_cycles(self, ir):
        artifact = build_artifact(ir, FILE, "bpc", machine="ooo")
        assert artifact["machine"]["model"] == "ooo"
        stats = artifact["stats"]
        assert stats["cycles"] > 0
        assert "conflict_penalty_cycles" in stats
        assert "alignment_penalty_cycles" in stats
        assert artifact["key"] == cache_key(ir, FILE, "bpc", machine="ooo")

    def test_module_artifact_threads_machine_to_fragments(self, ir):
        mod = ir + "\n" + ir.replace("@mac", "@mac2")
        artifact = build_module_artifact(mod, FILE, "bpc", machine="ooo")
        assert artifact["machine"]["model"] == "ooo"
        assert all("cycles" in f["stats"] for f in artifact["functions"])
        assert artifact["key"] == module_cache_key(
            mod, FILE, "bpc", machine="ooo"
        )


class TestVerifier:
    def test_ooo_artifact_verifies_with_cycle_recheck(self, ir):
        artifact = build_artifact(ir, FILE, "bpc", machine="ooo")
        verifier = AllocationVerifier("strict")
        report = verifier.verify_bytes(
            artifact_bytes(artifact),
            expected_key=artifact["key"], original_ir=ir,
        )
        assert report.ok, report.findings
        assert "machine-cycles" in report.checks

    def test_tampered_cycles_fail_verification(self, ir):
        artifact = build_artifact(ir, FILE, "bpc", machine="ooo")
        artifact["stats"]["cycles"] += 1.0
        report = AllocationVerifier("strict").verify_artifact(
            artifact, expected_key=artifact["key"]
        )
        assert not report.ok
        assert any("recomputes" in f for f in report.findings)

    def test_tampered_machine_spec_fails_key_recheck(self, ir):
        artifact = build_artifact(ir, FILE, "bpc", machine="ooo")
        artifact["machine"]["issue_width"] = 4
        report = AllocationVerifier("strict").verify_artifact(
            artifact, original_ir=ir
        )
        assert not report.ok


class TestService:
    def test_ooo_and_dsa_requests_never_alias(self, ir):
        service = AllocationService(ServiceConfig(verify="strict"))
        ooo_job = service.submit(request_for(ir, machine="ooo"))
        dsa_job = service.submit(request_for(ir))
        assert ooo_job.key != dsa_job.key
        service.process_once()
        service.process_once()
        assert ooo_job.status == "done", ooo_job.error
        assert dsa_job.status == "done", dsa_job.error
        assert json.loads(ooo_job.artifact)["machine"]["model"] == "ooo"
        assert "machine" not in json.loads(dsa_job.artifact)
        assert ooo_job.describe()["machine"] == "ooo"
        assert dsa_job.describe()["machine"] == "dsa"

    def test_identical_machine_requests_coalesce_and_hit(self, ir):
        service = AllocationService(ServiceConfig())
        spec = {"model": "ooo", "issue_width": 4}
        first = service.submit(request_for(ir, machine=spec))
        second = service.submit(request_for(ir, machine=spec))
        assert second is first and first.coalesced == 1
        service.process_once()
        assert first.status == "done", first.error
        third = service.submit(request_for(ir, machine=spec))
        assert third.cache == "hit"
        assert third.artifact == first.artifact

    def test_module_request_with_machine(self, ir):
        mod = ir + "\n" + ir.replace("@mac", "@mac2")
        service = AllocationService(ServiceConfig(verify="strict"))
        job = service.submit(request_for(mod, machine="ooo"))
        assert job.kind == "module"
        service.process_once()
        assert job.status == "done", job.error
        artifact = json.loads(job.artifact)
        assert artifact["machine"]["model"] == "ooo"
        assert len(artifact["functions"]) == 2
