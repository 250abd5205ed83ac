"""CLI integration: ``allocate --out``, ``repro request``, exit codes."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.service import ServiceConfig, make_server, shutdown_server


@pytest.fixture
def server_url():
    server = make_server("127.0.0.1", 0, ServiceConfig())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    shutdown_server(server)
    thread.join(timeout=5)


def test_allocate_out_writes_service_schema(tmp_path, capsys):
    out = tmp_path / "artifact.json"
    assert main(["allocate", "--method", "bpc", "--out", str(out)]) == 0
    artifact = json.loads(out.read_bytes())
    assert artifact["schema"] == 1
    assert artifact["function"] == "demo"
    assert artifact["method"] == "bpc"
    assert set(artifact["stats"]) >= {"spills", "bank_conflicts", "copies_inserted"}
    assert "wrote artifact" in capsys.readouterr().out


def test_cli_artifact_diffable_with_service_result(tmp_path, server_url, capsys):
    out = tmp_path / "cli.json"
    assert main(["allocate", "--out", str(out)]) == 0
    remote = tmp_path / "service.json"
    rc = main(
        ["request", "--server", server_url, "--out", str(remote)]
    )
    assert rc == 0
    # Same kernel, same defaults: byte-for-byte identical artifacts.
    assert remote.read_bytes() == out.read_bytes()


def test_request_reports_cache_hit_on_second_run(server_url, capsys):
    assert main(["request", "--server", server_url]) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert first["cache"] == "miss"
    assert main(["request", "--server", server_url]) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert second["cache"] == "hit"
    assert second["key"] == first["key"]
    assert second["stats"] == first["stats"]


def test_request_fail_on_degrade_exit_code(server_url, capsys):
    rc = main(
        [
            "request", "--server", server_url, "--trip-count", "64",
            "--deadline-ms", "0", "--fail-on-degrade",
        ]
    )
    assert rc == 3
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["degraded"] is True
    assert summary["served_method"] in ("bcr", "non")
    assert summary["requested_method"] == "bpc"


def test_request_ir_from_file(tmp_path, server_url, capsys):
    ir = tmp_path / "kernel.ir"
    ir.write_text(
        "func @tiny {\n"
        "block entry:\n"
        "  %v0:fp = li #1.0\n"
        "  %v1:fp = li #2.0\n"
        "  %v2:fp = fadd %v0:fp, %v1:fp\n"
        "  ret %v2:fp\n"
        "}\n",
        encoding="utf-8",
    )
    assert main(["request", "--server", server_url, "--ir", str(ir)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["served_method"] == "bpc"


def test_request_against_dead_server_fails_cleanly(capsys):
    rc = main(["request", "--server", "http://127.0.0.1:9", "--timeout", "1"])
    assert rc == 1
    assert "request failed" in capsys.readouterr().err
