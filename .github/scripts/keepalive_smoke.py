"""One kept-alive connection survives an unread body; a long-poll returns done.

Runs against a live ``repro serve`` on 127.0.0.1 — a single server or a
shard frontend, which answer through the same handler::

    python .github/scripts/keepalive_smoke.py PORT
"""

from __future__ import annotations

import http.client
import json
import sys

from repro.cli import _demo_kernel
from repro.ir import print_function


def main(port: int) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, data, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    # The 404 leaves its body unread; the next request must still parse.
    status, _ = call("POST", "/v1/nope", {"ir": "x" * 4096})
    assert status == 404, status
    status, body = call("GET", "/healthz")
    assert status == 200, (status, body)

    # A file no other smoke request uses, so the submit is a cold miss.
    request = {"ir": print_function(_demo_kernel(23)),
               "file": {"registers": 22, "banks": 2}, "method": "bpc"}
    status, body = call("POST", "/v1/submit", request)
    submitted = json.loads(body)
    assert submitted["cache"] == "miss", submitted
    status, body = call("GET", f"/v1/jobs/{submitted['job_id']}?wait_s=30")
    final = json.loads(body)
    assert status == 200 and final["status"] == "done", (status, final)
    print("keep-alive + long-poll ok:", final["job_id"])


if __name__ == "__main__":
    main(int(sys.argv[1]))
