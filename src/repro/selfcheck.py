"""Startup self-check: the canned kernel still allocates to known bytes.

``repro --selfcheck`` (and ``repro serve``, at startup) allocates one
canned kernel with each method and compares the sha256 of the full
result *artifact bytes* (allocated IR, assignment, every statistic)
against the digests recorded in :data:`SELFCHECK_DIGESTS`.  Any
difference raises :class:`SelfCheckError`; a service must hard-fail at
boot rather than serve allocations that drifted from the recorded
output.  After an intended output change, regenerate the digests with
:func:`selfcheck_digests` (docs/PERFORMANCE.md shows how).
"""

from __future__ import annotations

import hashlib

#: Methods covered by one self-check run.
SELFCHECK_METHODS = ("non", "bcr", "bpc")

#: Register file the canned kernel is allocated against.
SELFCHECK_FILE = {"registers": 16, "banks": 2}

#: sha256 of the canned kernel's artifact bytes, per method.
SELFCHECK_DIGESTS = {
    "non": "19614277eb1e564998b15f63066bdf4ed8cb46ed8851d358f93a11d0c0057d93",
    "bcr": "45ff9ff5dabfdf00658704da159e7a2f94e7328bd0d574156272d8647c3d9688",
    "bpc": "aeb9166acc121cb28bf6e6160ec3d5e9d172b16762c54a4c6b016c84d3af8841",
}


class SelfCheckError(RuntimeError):
    """The canned kernel's artifact no longer matches its recorded digest."""


def _canned_kernel():
    """A small loop kernel exercising copies, spilling pressure, and
    repeated operands (the shapes the flat CSR must get exactly right)."""
    from .ir import IRBuilder

    b = IRBuilder("selfcheck")
    xs = [b.const(float(i + 1)) for i in range(6)]
    acc = b.const(0.0)
    with b.loop(trip_count=16):
        for i in range(len(xs) - 1):
            product = b.arith("fmul", xs[i], xs[i + 1])
            b.arith_into(acc, "fadd", acc, product)
        square = b.arith("fmul", acc, acc)
        b.arith_into(acc, "fadd", acc, square)
    b.ret(acc)
    return b.finish()


def _artifact(ir: str, method: str) -> bytes:
    """Canonical artifact bytes for the canned kernel under *method*."""
    from .service.artifact import artifact_bytes, build_artifact

    return artifact_bytes(build_artifact(ir, SELFCHECK_FILE, method))


def selfcheck_digests(methods=SELFCHECK_METHODS) -> dict[str, str]:
    """sha256 of the canned kernel's artifact bytes, per method."""
    from .ir import print_function

    ir = print_function(_canned_kernel())
    return {
        method: hashlib.sha256(_artifact(ir, method)).hexdigest()
        for method in methods
    }


def run_selfcheck(methods=SELFCHECK_METHODS) -> dict:
    """Allocate the canned kernel; raise on any digest mismatch.

    Returns a small summary dict (``methods``, ``ok``) on success.
    """
    for method, digest in selfcheck_digests(methods).items():
        expected = SELFCHECK_DIGESTS[method]
        if digest != expected:
            raise SelfCheckError(
                f"method {method!r}: canned-kernel artifact digest "
                f"{digest[:12]} != recorded {expected[:12]}"
            )
    return {"methods": tuple(methods), "ok": True}
