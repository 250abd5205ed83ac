"""Allocation-as-a-service: serve repeated allocation requests.

The first subsystem that makes the reproduction behave like a serving
stack rather than a batch script (see ``docs/SERVICE.md``):

* :mod:`.artifact` — the shared result-artifact schema and the
  content-addressed :func:`~repro.service.artifact.cache_key`;
* :mod:`.cache` — :class:`~repro.service.cache.AllocationCache`,
  memory-LRU + optional on-disk content-addressed store;
* :mod:`.degrade` — the ``bpc → bcr → non`` deadline ladder and the
  EWMA :class:`~repro.service.degrade.TierCostModel`;
* :mod:`.queue` — :class:`~repro.service.queue.AllocationService`:
  submit/coalesce, batched dispatch, crash-tolerant execution;
* :mod:`.durability` — the write-ahead job journal behind ``repro
  serve --journal``: checksummed JSONL frames, recovery replay of
  accepted-but-unfinished jobs, checkpoint compaction (see the
  "Durability & lifecycle" section of ``docs/RESILIENCE.md``);
* :mod:`.server` / :mod:`.client` — the HTTP/JSON front-end behind
  ``repro serve`` and its Python client;
* :mod:`.shard` — the horizontal scale-out layer: consistent-hash
  routing over N worker processes with health-check/evict/respawn
  (``repro serve --shards N``, see ``docs/SCALING.md``);
* :mod:`.loadgen` — the seeded open-loop traffic harness behind
  ``repro loadgen`` (arrival ramps, Zipf popularity, deadline mixes,
  p50/p99/p999 + goodput reporting into the BENCH history schema).

Tracing (the one span recorder, :data:`repro.obs.TRACER`, with
contexts carried over ``X-Repro-Trace``) and the fleet telemetry of
:mod:`repro.obs.telemetry` (the ``/v1/metrics`` Prometheus exposition,
JSONL request events, SLO tracking) thread through every layer above —
see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from .artifact import (
    FLAG_DEFAULTS,
    SCHEMA_VERSION,
    RequestError,
    artifact_bytes,
    build_artifact,
    build_module_artifact,
    cache_key,
    canonical_ir,
    is_module_text,
    module_cache_key,
    normalize_request,
)
from .cache import AllocationCache
from .client import CircuitOpenError, ServiceClient, ServiceError
from .degrade import LADDER, TierCostModel, ladder_from, select_tier
from .durability import JobJournal, JournalReplay
from .incremental import FragmentStore, IncrementalAllocator
from .loadgen import LoadgenConfig, loadgen_record, run_loadgen
from .queue import (
    AllocationService,
    Job,
    ServiceConfig,
    ServiceDrainingError,
    ServiceOverloadError,
)
from .server import ServiceServer, make_server, shutdown_server
from .shard import (
    HashRing,
    LocalShard,
    NoShardAvailableError,
    ProcessShard,
    ShardError,
    ShardFrontendServer,
    ShardRouter,
    make_shard_server,
    shutdown_shard_server,
)

__all__ = [
    "AllocationCache",
    "AllocationService",
    "CircuitOpenError",
    "FLAG_DEFAULTS",
    "FragmentStore",
    "HashRing",
    "IncrementalAllocator",
    "Job",
    "JobJournal",
    "JournalReplay",
    "LADDER",
    "LoadgenConfig",
    "LocalShard",
    "NoShardAvailableError",
    "ProcessShard",
    "RequestError",
    "SCHEMA_VERSION",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDrainingError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceServer",
    "ShardError",
    "ShardFrontendServer",
    "ShardRouter",
    "TierCostModel",
    "artifact_bytes",
    "build_artifact",
    "build_module_artifact",
    "cache_key",
    "canonical_ir",
    "is_module_text",
    "ladder_from",
    "loadgen_record",
    "make_server",
    "make_shard_server",
    "module_cache_key",
    "normalize_request",
    "run_loadgen",
    "select_tier",
    "shutdown_server",
    "shutdown_shard_server",
]
