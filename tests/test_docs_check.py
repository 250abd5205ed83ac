"""docs-check: intra-doc links resolve and the public API is documented.

Keeps the documentation site honest as the code moves:

* every relative markdown link in README.md and docs/*.md points at a
  file that exists;
* every ``repro/….py`` module path named in README.md, DESIGN.md and
  docs/*.md exists under src/;
* every ``repro.obs`` public symbol (``__all__``) is documented in
  docs/OBSERVABILITY.md;
* every ``path · symbol`` anchor in docs/GLOSSARY.md names a real file
  and a symbol that actually appears in it;
* the CLI flags the docs advertise exist on the parser.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

import repro.obs
from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = sorted(REPO.glob("docs/*.md")) + [REPO / "README.md"]

LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
#: A module path as the docs name it: ``repro/alloc/pbqp.py``, or with a
#: brace list, ``repro/alloc/{greedy,spiller}.py``.
MODULE_PATH = re.compile(r"repro/[\w/{},.]*?\.py")
ANCHOR = re.compile(r"`(src/[\w/.]+\.py)` · `([\w.]+)`")


def doc_ids():
    return [str(p.relative_to(REPO)) for p in DOCS]


@pytest.mark.parametrize("doc", DOCS, ids=doc_ids())
def test_relative_links_resolve(doc):
    broken = []
    for target in LINK.findall(doc.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:  # pure intra-page anchor
            continue
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken links {broken}"


def _expand_braces(path: str) -> list[str]:
    """``a/{b,c}.py`` -> ``["a/b.py", "a/c.py"]`` (every brace list)."""
    match = re.search(r"\{([^}]*)\}", path)
    if match is None:
        return [path]
    return [
        expanded
        for part in match.group(1).split(",")
        for expanded in _expand_braces(
            path[: match.start()] + part + path[match.end():]
        )
    ]


def test_named_module_paths_exist():
    named = set()
    for doc in DOCS + [REPO / "DESIGN.md"]:
        for match in MODULE_PATH.findall(doc.read_text(encoding="utf-8")):
            named.update(
                (doc.name, path) for path in _expand_braces(match)
            )
    assert len(named) >= 60, "module-path pattern stopped matching?"
    missing = sorted(
        f"{doc}: {path}" for doc, path in named
        if not (REPO / "src" / path).is_file()
    )
    assert not missing, missing


def test_every_public_obs_symbol_is_documented():
    text = (REPO / "docs/OBSERVABILITY.md").read_text(encoding="utf-8")
    missing = [sym for sym in repro.obs.__all__ if f"`{sym}`" not in text]
    assert not missing, (
        f"repro.obs symbols missing from docs/OBSERVABILITY.md: {missing}"
    )


def test_glossary_anchors_name_real_symbols():
    text = (REPO / "docs/GLOSSARY.md").read_text(encoding="utf-8")
    anchors = ANCHOR.findall(text)
    assert len(anchors) >= 30, "glossary lost its anchors?"
    problems = []
    for path, symbol in anchors:
        file = REPO / path
        if not file.exists():
            problems.append(f"{path}: no such file")
            continue
        source = file.read_text(encoding="utf-8")
        for part in symbol.split("."):
            if not re.search(rf"\b{re.escape(part)}\b", source):
                problems.append(f"{path}: no symbol {part!r}")
    assert not problems, problems


def test_documented_cli_flags_exist():
    text = (REPO / "docs/OBSERVABILITY.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"(--[a-z][a-z-]+)", text))
    parser_flags = {
        opt for action in build_parser()._actions for opt in action.option_strings
    }
    # Subcommand-local flags mentioned in examples are fine; the global
    # observability flags must exist.
    for flag in ("--trace", "--metrics", "--explain", "--jobs"):
        assert flag in documented
        assert flag in parser_flags


def test_readme_links_every_doc():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for doc in REPO.glob("docs/*.md"):
        assert f"docs/{doc.name}" in readme, f"README does not link {doc.name}"


# ----------------------------------------------------------------------
# CLI flags and HTTP routes: docs vs the actual trees
# ----------------------------------------------------------------------

#: Backticked ``--flags`` in the docs that intentionally belong to other
#: tools (pytest, pip, ...), not to the repro parser.
EXTERNAL_FLAGS = {"--benchmark-only"}

DOC_FLAG = re.compile(r"`[^`]*?(--[a-z][a-z0-9-]*)")


def _walk_parsers(parser):
    """The parser and every (recursively nested) subcommand parser."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _walk_parsers(sub)


def _all_parser_flags():
    return {
        opt
        for p in _walk_parsers(build_parser())
        for action in p._actions
        for opt in action.option_strings
    }


def _subparser(name):
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise AssertionError("parser has no subcommands?")


@pytest.mark.parametrize(
    "doc", ["docs/SERVICE.md", "docs/SCALING.md", "docs/SIMULATION.md"]
)
def test_every_documented_flag_exists_on_the_parser(doc):
    text = (REPO / doc).read_text(encoding="utf-8")
    documented = set(DOC_FLAG.findall(text)) - EXTERNAL_FLAGS
    assert documented, f"{doc} documents no flags?"
    known = _all_parser_flags()
    ghosts = sorted(documented - known)
    assert not ghosts, f"{doc} documents flags the CLI lacks: {ghosts}"


def test_serve_and_loadgen_flags_are_documented():
    service = (REPO / "docs/SERVICE.md").read_text(encoding="utf-8")
    scaling = (REPO / "docs/SCALING.md").read_text(encoding="utf-8")
    def _undocumented(subcommand, text):
        missing = []
        for action in _subparser(subcommand)._actions:
            options = [o for o in action.option_strings if o != "--help"]
            # documented under any alias (`-v` covers `--verbose`)
            if options and not any(o in text for o in options):
                missing.append(options[-1])
        return sorted(missing)

    missing = _undocumented("serve", service)
    assert not missing, f"SERVICE.md missing serve flags: {missing}"
    missing = _undocumented("loadgen", scaling)
    assert not missing, f"SCALING.md missing loadgen flags: {missing}"
    assert "--shards" in service  # the pointer row into SCALING.md


def _normalize_route(path):
    path = path.split("?", 1)[0]
    return re.sub(r"<[^>]+>", "<id>", path)


def test_documented_endpoints_match_server_routes():
    from repro.service.server import ROUTES

    served = {_normalize_route(path) for _, path in ROUTES}
    endpoint = re.compile(r"`(?:GET |POST )?(/(?:healthz|v1/)[^`\s]*)`")
    for doc in ("docs/SERVICE.md", "docs/SCALING.md"):
        text = (REPO / doc).read_text(encoding="utf-8")
        documented = {_normalize_route(p) for p in endpoint.findall(text)}
        ghosts = sorted(documented - served)
        assert not ghosts, f"{doc} documents unknown endpoints: {ghosts}"
    service = (REPO / "docs/SERVICE.md").read_text(encoding="utf-8")
    documented = {
        _normalize_route(p) for p in endpoint.findall(service)
    }
    undocumented = sorted(served - documented)
    assert not undocumented, (
        f"SERVICE.md missing endpoints: {undocumented}"
    )


def test_shard_frontend_serves_the_same_routes():
    # The sharded front end must not fork the HTTP surface: every route
    # in ROUTES answers on both mounts — a single server, and a frontend
    # over two local shards — with anything but the "no such path" 404
    # an unknown path gets.
    import http.client
    import threading

    from repro.service import (
        LocalShard,
        ServiceConfig,
        ShardRouter,
        make_server,
        make_shard_server,
        shutdown_server,
    )
    from repro.service.server import ROUTES

    router = ShardRouter(
        [LocalShard(f"s{i}", ServiceConfig()) for i in range(2)]
    )
    mounts = {
        "single": make_server("127.0.0.1", 0, ServiceConfig()),
        "frontend": make_shard_server("127.0.0.1", 0, router=router),
    }
    for mount, server in mounts.items():
        threading.Thread(target=server.serve_forever, daemon=True).start()
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)

        def answer(method, path):
            body = b"{}" if method == "POST" else None
            conn.request(method, path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")

        try:
            status, text = answer("GET", "/v1/nope")
            assert status == 404 and "no such path" in text, (mount, text)
            for method, template in ROUTES:
                path = re.sub(r"<[^>]+>", "j000001@s0", template)
                status, text = answer(method, path)
                assert not (status == 404 and "no such path" in text), (
                    f"{mount} does not serve {method} {template}: {text}"
                )
        finally:
            conn.close()
            shutdown_server(server)


def test_durability_doc_is_wired_in():
    """The durability layer's docs, flags, routes, and glossary entries
    stay attached to the code they describe."""
    from repro.service.server import ROUTES

    resilience = (REPO / "docs/RESILIENCE.md").read_text(encoding="utf-8")
    for term in (
        "Durability & lifecycle",
        "repro-journal/1",
        "`queue.journal`",
        "`kill9`",
        "rolling restart",
        "exactly-once by idempotency",
        "quarantine.jsonl",
        "checkpoint.jsonl",
    ):
        assert term in resilience, f"RESILIENCE.md lost {term!r}"

    glossary = (REPO / "docs/GLOSSARY.md").read_text(encoding="utf-8")
    for term in ("write-ahead journal", "recovery replay", "drain",
                 "rolling restart", "exactly-once by idempotency"):
        assert term in glossary, f"GLOSSARY.md lost {term!r}"

    serve_flags = {
        opt
        for action in _subparser("serve")._actions
        for opt in action.option_strings
    }
    assert "--journal" in serve_flags
    loadgen_flags = {
        opt
        for action in _subparser("loadgen")._actions
        for opt in action.option_strings
    }
    assert {"--journal", "--rolling-restart"} <= loadgen_flags
    request_flags = {
        opt
        for action in _subparser("request")._actions
        for opt in action.option_strings
    }
    assert "--job-id" in request_flags
    assert ("POST", "/v1/admin/drain") in ROUTES


# ----------------------------------------------------------------------
# Fleet telemetry: documented metric names vs a rendered exposition
# ----------------------------------------------------------------------

PROM_NAME = re.compile(r"`(repro_[a-z0-9_]+)`")


def test_documented_metric_names_round_trip_through_exposition():
    """Every ``repro_*`` metric family named in the docs must come out
    of a real service's ``/v1/metrics`` exposition (after stripping the
    histogram/counter suffixes), and every documented dotted service
    metric must flatten to a valid family name."""
    from repro.ir import print_function
    from repro.obs.telemetry import (
        parse_prometheus,
        prometheus_name,
        render_prometheus,
    )
    from repro.service import AllocationService, ServiceConfig

    from .conftest import build_mac_kernel

    service = AllocationService(ServiceConfig())
    job = service.submit(
        {
            "ir": print_function(build_mac_kernel(trip_count=8)),
            "file": {"registers": 32, "banks": 2},
            "method": "bpc",
        }
    )
    service.process_once()
    assert job.status == "done"

    exposition = render_prometheus([({}, service.metrics_sample())])
    families = {name for name, _labels in parse_prometheus(exposition)}
    service.stop()

    def _family(name):
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                return name[: -len(suffix)]
        return name

    served = {_family(name) for name in families} | set(families)
    documented = set()
    for doc in ("docs/OBSERVABILITY.md", "docs/SERVICE.md", "docs/SCALING.md"):
        documented |= set(PROM_NAME.findall((REPO / doc).read_text(encoding="utf-8")))
    ghosts = sorted({_family(n) for n in documented} - served)
    assert not ghosts, f"docs name metric families the service never serves: {ghosts}"
    # The flattening rule itself stays documented and stable.
    assert prometheus_name("service.queue.depth") == "repro_service_queue_depth"


def test_observability_doc_names_the_telemetry_routes():
    from repro.service.server import ROUTES

    text = (REPO / "docs/OBSERVABILITY.md").read_text(encoding="utf-8")
    served = {_normalize_route(path) for _, path in ROUTES}
    for route in ("/v1/metrics", "/v1/trace/<id>"):
        assert route in served, f"server lost {route}"
    assert "/v1/metrics" in text
    assert "/v1/trace/" in text
    assert "X-Repro-Trace" in text


def test_simulation_doc_is_wired_in():
    architecture = (REPO / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")
    assert "SIMULATION.md" in architecture
    assert "sim/ooo" in architecture
    assert "ooo_sweep.py" in architecture
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/SIMULATION.md" in readme
    simulation = (REPO / "docs/SIMULATION.md").read_text(encoding="utf-8")
    for term in ("degenerate", "survival", "rename", "issue", "retire",
                 "--machine ooo", "OOO_baseline.json", "machine-cycles"):
        assert term in simulation, f"SIMULATION.md lost the {term} story"
    glossary = (REPO / "docs/GLOSSARY.md").read_text(encoding="utf-8")
    for term in ("register renaming", "issue queue", "ROB", "issue width",
                 "read port", "degenerate parity", "penalty survival",
                 "machine spec"):
        assert term in glossary, f"GLOSSARY.md missing {term}"
    experiments = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "ooo_survival.txt" in experiments
    assert "OOO_baseline.json" in experiments
    # The sweep knobs the docs advertise exist on the measure subcommand.
    flags = {
        opt
        for action in _subparser("measure")._actions
        for opt in action.option_strings
    }
    for flag in ("--machine", "--issue-width", "--read-ports", "--rob",
                 "--iq", "--no-rename", "--record", "--out"):
        assert flag in flags, f"measure lost {flag}"


def test_scaling_doc_is_wired_in():
    architecture = (REPO / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")
    assert "SCALING.md" in architecture
    assert "service/shard.py" in architecture
    assert "service/loadgen.py" in architecture
    service = (REPO / "docs/SERVICE.md").read_text(encoding="utf-8")
    assert "SCALING.md" in service
    scaling = (REPO / "docs/SCALING.md").read_text(encoding="utf-8")
    for term in ("consistent-hash", "goodput", "open-loop", "p999"):
        assert term in scaling, f"SCALING.md lost the {term} story"
    glossary = (REPO / "docs/GLOSSARY.md").read_text(encoding="utf-8")
    for term in ("shard", "consistent hashing", "open-loop", "goodput",
                 "p999"):
        assert term in glossary, f"GLOSSARY.md missing {term}"
