"""One kept-alive connection survives an unread body; a long-poll returns
done; a burst of new connections is answered at once.

Runs against a live ``repro serve`` on 127.0.0.1 — a single server or a
shard frontend, which answer through the same handler::

    python .github/scripts/keepalive_smoke.py PORT
"""

from __future__ import annotations

import http.client
import json
import sys
import threading

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
    burst(port)


def burst(port: int, clients: int = 32) -> None:
    """*clients* fresh connections at once each get ``/healthz`` within
    0.5 s.  One beyond the listen backlog has its SYN dropped and resent
    after the kernel's 1 s.  32 is the server's fixed handler limit
    (``MAX_CONCURRENT_REQUESTS``), so nothing is shed."""
    barrier = threading.Barrier(clients, timeout=10)
    statuses = []

    def healthz():
        barrier.wait()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=0.5)
        try:
            conn.request("GET", "/healthz")
            statuses.append(conn.getresponse().status)
        except OSError as exc:
            statuses.append(repr(exc))
        finally:
            conn.close()

    threads = [threading.Thread(target=healthz) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert statuses == [200] * clients, statuses
    print(f"burst ok: {clients} new connections answered")


if __name__ == "__main__":
    main(int(sys.argv[1]))
