"""Result artifacts and content-addressed cache keys.

The service and the CLI (``repro allocate --out``) share one artifact
schema so their outputs are byte-for-byte diffable.  An artifact is the
full outcome of one pipeline run — the allocated IR, the final
vreg→physreg assignment, and every statistic the experiment harness
measures — serialized as *canonical JSON* (sorted keys, fixed
separators), which is what makes cache hits bit-identical to cold runs.

The cache key is a SHA-256 over a canonical JSON encoding of everything
that determines the result:

* the *canonical* printed IR (the submitted text is parsed and
  re-printed, so whitespace/comment differences cannot fork the key);
* the register-file description (registers, banks, subgroups, class);
* the method (``bpc`` / ``bcr`` / ``non``);
* the pipeline flags, with defaults filled in (an empty flag dict and an
  explicitly-spelled-default dict hash identically);
* the machine model, *only when non-default*: a request measured on the
  out-of-order machine (``machine: {"model": "ooo", ...}``) carries its
  canonical spec in the key payload, so artifacts can never alias
  across machine models — while requests that omit ``machine`` (or
  spell out the default ``dsa``) hash byte-identically to
  pre-machine-aware clients.

Everything that does *not* change the result — deadlines, submission
order, observability settings — stays out of the key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..banks.register_file import (
    BankedRegisterFile,
    BankSubgroupRegisterFile,
    RegisterFile,
)
from ..ir.function import Function, Module
from ..ir.parser import parse_function, parse_module
from ..ir.printer import print_function, print_module
from ..prescount.bank_assigner import DEFAULT_THRES_RATIO
from ..prescount.pipeline import METHODS, PipelineConfig, run_pipeline
from ..sim.ooo import (
    MACHINE_DEFAULT,
    OooConfig,
    OooMachine,
    normalize_machine_spec,
)
from ..sim.static_stats import analyze_static

#: Version of the artifact/key schema; bump on any content change.
SCHEMA_VERSION = 1

#: Pipeline knobs a request may override, with their defaults.  The
#: subset is deliberately the deterministic, result-affecting knobs of
#: :class:`~repro.prescount.pipeline.PipelineConfig`.
FLAG_DEFAULTS: dict[str, Any] = {
    "run_coalescing": True,
    "run_scheduling": True,
    "enable_live_range_split": True,
    "strict_banks": None,
    "thres_ratio": DEFAULT_THRES_RATIO,
    "use_pressure_counting": True,
    "cost_ordering": True,
    "balance_free_registers": True,
    "bundle_aware": False,
}


class RequestError(ValueError):
    """A malformed allocation request (bad IR, method, file, or flags)."""


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no insignificant whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_ir(text: str) -> str:
    """Parse and re-print IR text, normalizing whitespace and comments."""
    try:
        return print_function(parse_function(text))
    except Exception as exc:
        raise RequestError(f"unparseable IR: {exc}") from exc


def normalize_file_spec(spec: dict) -> dict:
    """Validate and default a register-file description.

    Accepted keys: ``registers`` (required), ``banks`` (default 2),
    ``subgroups`` (default 0 = flat interleaved file; > 0 selects the
    DSA's bank-subgroup design).
    """
    if not isinstance(spec, dict):
        raise RequestError(f"file spec must be an object, got {type(spec).__name__}")
    unknown = set(spec) - {"registers", "banks", "subgroups"}
    if unknown:
        raise RequestError(f"unknown file spec keys {sorted(unknown)}")
    try:
        registers = int(spec["registers"])
    except KeyError:
        raise RequestError("file spec needs 'registers'") from None
    banks = int(spec.get("banks", 2))
    subgroups = int(spec.get("subgroups", 0))
    if registers < 1 or banks < 1 or subgroups < 0:
        raise RequestError("file spec values must be positive")
    return {"registers": registers, "banks": banks, "subgroups": subgroups}


def build_register_file(spec: dict) -> RegisterFile:
    """Materialize the register file a normalized spec describes."""
    spec = normalize_file_spec(spec)
    try:
        if spec["subgroups"]:
            return BankSubgroupRegisterFile(
                spec["registers"], spec["banks"], spec["subgroups"]
            )
        return BankedRegisterFile(spec["registers"], spec["banks"])
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


def normalize_flags(flags: dict | None, file_spec: dict | None = None) -> dict:
    """Fill flag defaults and reject unknown knobs.

    ``strict_banks`` folds to its default wherever it cannot change the
    allocation, so such requests share one key: an explicit false (the
    pipeline's own default) on any file, and any value on the
    bank-subgroup file a normalized *file_spec* names, whose DSA policy
    never reads the flag.  A true on a flat file keeps its own key: there
    it restricts bpc's candidates to the assigned bank.
    """
    flags = dict(flags or {})
    unknown = set(flags) - set(FLAG_DEFAULTS)
    if unknown:
        raise RequestError(f"unknown pipeline flags {sorted(unknown)}")
    merged = dict(FLAG_DEFAULTS)
    merged.update(flags)
    if not merged["strict_banks"] or (file_spec and file_spec["subgroups"]):
        merged["strict_banks"] = FLAG_DEFAULTS["strict_banks"]
    return merged


def check_method(method: str) -> str:
    if method not in METHODS:
        raise RequestError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    return method


def check_machine(machine) -> dict:
    """Canonicalize a request's ``machine`` field (``None`` = default)."""
    try:
        return normalize_machine_spec(machine)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


def cache_key(
    ir: str,
    file_spec: dict,
    method: str,
    flags: dict | None = None,
    *,
    canonical: bool = False,
    machine: dict | str | None = None,
) -> str:
    """Content address of one allocation request.

    *ir* may be raw (un-canonical) text; it is normalized here unless
    the caller asserts it already came out of the printer
    (``canonical=True`` — the service's hot path, which canonicalizes
    once at submit).  The key is stable across processes and Python
    versions because it hashes canonical JSON, never ``repr`` or
    hash-seed-dependent orderings.

    *machine* selects the cycle model whose measurements ride in the
    artifact.  The default (in-order ``dsa``) contributes nothing to the
    payload, so pre-machine-aware keys are unchanged; any non-default
    spec is folded in canonically so artifacts measured on different
    machines never alias.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "ir": ir if canonical else canonical_ir(ir),
        "file": normalize_file_spec(file_spec),
        "method": check_method(method),
    }
    payload["flags"] = normalize_flags(flags, payload["file"])
    machine = check_machine(machine)
    if machine != MACHINE_DEFAULT:
        payload["machine"] = machine
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def build_artifact(
    function: Function | str,
    file_spec: dict,
    method: str,
    flags: dict | None = None,
    machine: dict | str | None = None,
) -> dict:
    """Run the pipeline and package the full result artifact.

    This is the single execution path behind the service workers *and*
    ``repro allocate --out`` — both produce the same schema, keyed by the
    same content address.  A non-default *machine* additionally runs the
    requested cycle model over the allocated function and attaches its
    measurements (``cycles`` / ``conflict_penalty_cycles`` /
    ``alignment_penalty_cycles``) plus the canonical spec under a
    ``machine`` field; the default leaves the artifact byte-identical to
    a machine-unaware build.
    """
    file_spec = normalize_file_spec(file_spec)
    flags = normalize_flags(flags, file_spec)
    method = check_method(method)
    machine = check_machine(machine)
    if isinstance(function, str):
        try:
            function = parse_function(function)
        except Exception as exc:
            raise RequestError(f"unparseable IR: {exc}") from exc
    register_file = build_register_file(file_spec)
    config_kwargs = {k: v for k, v in flags.items() if v != FLAG_DEFAULTS[k]}
    config = PipelineConfig(register_file, method, **config_kwargs)
    pipe = run_pipeline(function, config)
    static = analyze_static(pipe.function, register_file, am=pipe.analyses)
    assignment = {
        f"%v{vreg.vid}": preg.index
        for vreg, preg in pipe.allocation.assignment.items()
    }
    artifact = {
        "schema": SCHEMA_VERSION,
        # print_function output is canonical by construction, so the key
        # needn't round-trip it through the parser again.
        "key": cache_key(
            print_function(function), file_spec, method, flags,
            canonical=True, machine=machine,
        ),
        "function": function.name,
        "method": method,
        "file": file_spec,
        "flags": flags,
        "ir": print_function(pipe.function),
        "assignment": dict(sorted(assignment.items())),
        "stats": {
            "instructions": static.instructions,
            "conflict_relevant": static.conflict_relevant,
            "static_conflicts": static.conflicts,
            "bank_conflicts": static.bank_conflicts,
            "subgroup_violations": static.subgroup_violations,
            "spills": pipe.spill_count,
            "spill_instructions": pipe.allocation.spill_instructions,
            "copies_inserted": pipe.copies_inserted,
            "copies_removed": pipe.allocation.copies_removed,
            "evictions": pipe.allocation.evictions,
        },
    }
    if machine != MACHINE_DEFAULT:
        model = OooMachine(
            register_file, config=OooConfig.from_dict(machine)
        )
        report = model.run(pipe.function, am=pipe.analyses)
        artifact["machine"] = machine
        artifact["stats"].update(
            {
                "cycles": report.cycles,
                "conflict_penalty_cycles": report.conflict_penalty_cycles,
                "alignment_penalty_cycles": report.alignment_penalty_cycles,
            }
        )
    return artifact


def artifact_bytes(artifact: dict) -> bytes:
    """Canonical wire/storage form; equality here is bit-identity."""
    return canonical_json(artifact).encode("utf-8")


# ----------------------------------------------------------------------
# Module artifacts: incremental reallocation over multi-function IR
# ----------------------------------------------------------------------
#
# A module request ("func @a {...} func @b {...}") decomposes into one
# *fragment* per function.  Each fragment is an ordinary function
# artifact keyed by its own :func:`cache_key`, so when K of N functions
# change between two submissions, the N-K unchanged fragments are plain
# content-address hits and only the K changed functions re-run the
# pipeline.  The spliced module artifact is byte-identical to a
# from-scratch build by construction: fragments are canonical JSON, and
# a loads/dumps round trip of canonical JSON is the identity.

def canonical_module(text: str | Module) -> Module:
    """Parse module text (idempotent on an already-parsed module)."""
    if isinstance(text, Module):
        return text
    try:
        return parse_module(text)
    except Exception as exc:
        raise RequestError(f"unparseable IR: {exc}") from exc


def module_cache_key(
    ir: str | list[str],
    file_spec: dict,
    method: str,
    flags: dict | None = None,
    *,
    machine: dict | str | None = None,
) -> str:
    """Content address of one *module* allocation request.

    *ir* is either raw module text or the list of canonical per-function
    IR texts.  The payload carries ``"kind": "module"`` so a module key
    can never collide with a single-function :func:`cache_key`.  Like
    :func:`cache_key`, a non-default *machine* spec joins the payload;
    the default contributes nothing.
    """
    if isinstance(ir, str):
        module = canonical_module(ir)
        ir = [print_function(fn) for fn in module.functions]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "module",
        "ir": list(ir),
        "file": normalize_file_spec(file_spec),
        "method": check_method(method),
    }
    payload["flags"] = normalize_flags(flags, payload["file"])
    machine = check_machine(machine)
    if machine != MACHINE_DEFAULT:
        payload["machine"] = machine
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def request_key(
    kind: str,
    ir: str,
    file_spec: dict,
    method: str,
    flags: dict | None = None,
    machine: dict | str | None = None,
) -> str:
    """Content address of a normalized request of *kind*: the
    :func:`module_cache_key` of a module, the :func:`cache_key` of a
    function (*ir* is canonical text, as :func:`normalize_request`
    returns it)."""
    if kind == "module":
        return module_cache_key(ir, file_spec, method, flags, machine=machine)
    return cache_key(
        ir, file_spec, method, flags, canonical=True, machine=machine
    )


#: The keys a service request body may carry.
REQUEST_KEYS = frozenset(
    {"ir", "file", "method", "flags", "deadline_ms", "machine"}
)


def normalize_request(request: dict) -> dict:
    """Validate and canonicalize one service request body.

    The single request-normalization path shared by the in-process
    :class:`~repro.service.queue.AllocationService` and the shard router
    (:mod:`repro.service.shard`): both must agree byte-for-byte on the
    canonical IR and the content address, or the same request could land
    on different shards depending on which door it came in through.

    Returns ``{kind, ir, file, method, flags, machine, deadline_ms,
    key}`` where *ir* is canonical (re-printed) text and *key* is the
    content address (:func:`request_key`).  The kind comes from the
    parsed function count, so a comment that names another ``func @``
    cannot turn a function into a module: IR of several functions is a
    ``module``, IR of one a ``function``.  Normalization is idempotent:
    feeding the returned fields back through produces the identical key.
    """
    if not isinstance(request, dict):
        raise RequestError("request body must be a JSON object")
    unknown = set(request) - REQUEST_KEYS
    if unknown:
        raise RequestError(f"unknown request keys {sorted(unknown)}")
    ir = request.get("ir")
    if not isinstance(ir, str) or not ir.strip():
        raise RequestError("request needs non-empty 'ir' text")
    module = canonical_module(ir)
    if not module.functions:
        raise RequestError(
            "unparseable IR: expected exactly one function, found 0"
        )
    if len(module.functions) > 1:
        # Multi-function IR takes the incremental module path.
        kind, ir = "module", print_module(module)
    else:
        kind, ir = "function", print_function(module.functions[0])
    file_spec = normalize_file_spec(request.get("file", {}))
    method = check_method(request.get("method", "bpc"))
    flags = normalize_flags(request.get("flags"), file_spec)
    machine = check_machine(request.get("machine"))
    deadline_ms = request.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = float(deadline_ms)
    return {
        "kind": kind,
        "ir": ir,
        "file": file_spec,
        "method": method,
        "flags": flags,
        "machine": machine,
        "deadline_ms": deadline_ms,
        "key": request_key(kind, ir, file_spec, method, flags, machine),
    }


def build_module_artifact(
    module: Module | str,
    file_spec: dict,
    method: str,
    flags: dict | None = None,
    *,
    machine: dict | str | None = None,
    store=None,
    counters: dict | None = None,
) -> dict:
    """Allocate every function of a module, reusing cached fragments.

    *store* is any object with ``get(key) -> bytes | None`` and
    ``put(key, bytes)``: an :class:`~repro.service.cache.AllocationCache`
    (``AllocationCache(None)`` keeps fragments in memory only), or the
    service's verified view of its cache.  Without a store every
    function executes — the from-scratch path the parity tests compare
    against.

    *counters*, when given, accumulates ``modules`` / ``functions_total``
    / ``functions_reused`` / ``functions_executed`` across successful
    calls — the observable proof that an incremental rebuild re-ran only
    the changed functions.
    """
    file_spec = normalize_file_spec(file_spec)
    flags = normalize_flags(flags, file_spec)
    method = check_method(method)
    machine = check_machine(machine)
    module = canonical_module(module)
    if not module.functions:
        raise RequestError("module holds no functions")
    fragments: list[dict] = []
    function_irs: list[str] = []
    reused = executed = 0
    for fn in module.functions:
        ir = print_function(fn)
        function_irs.append(ir)
        frag_key = cache_key(
            ir, file_spec, method, flags, canonical=True, machine=machine
        )
        data = store.get(frag_key) if store is not None else None
        if data is not None:
            # Canonical JSON round-trips exactly, so the reused fragment
            # splices in byte-identical to a fresh build.
            fragment = json.loads(data.decode("utf-8"))
            reused += 1
        else:
            fragment = build_artifact(fn, file_spec, method, flags, machine)
            if store is not None:
                store.put(frag_key, artifact_bytes(fragment))
            executed += 1
        fragments.append(fragment)
    if counters is not None:
        counters["modules"] = counters.get("modules", 0) + 1
        counters["functions_total"] = (
            counters.get("functions_total", 0) + len(fragments)
        )
        counters["functions_reused"] = (
            counters.get("functions_reused", 0) + reused
        )
        counters["functions_executed"] = (
            counters.get("functions_executed", 0) + executed
        )
    stats: dict[str, Any] = {}
    for fragment in fragments:
        for name, value in fragment["stats"].items():
            stats[name] = stats.get(name, 0) + value
    artifact = {
        "schema": SCHEMA_VERSION,
        "kind": "module",
        "key": module_cache_key(
            function_irs, file_spec, method, flags, machine=machine
        ),
        "module": module.name,
        "method": method,
        "file": file_spec,
        "flags": flags,
        "functions": fragments,
        "stats": stats,
    }
    if machine != MACHINE_DEFAULT:
        artifact["machine"] = machine
    return artifact
