"""Content-addressed allocation cache.

Keys are :func:`repro.service.artifact.cache_key` digests; values are
the *canonical bytes* of a result artifact.  Storing bytes (not parsed
dicts) is what lets a hit return a response bit-identical to the cold
run that populated the entry.

Two layers:

* an in-memory LRU (``max_entries``), which every lookup goes through;
* an optional on-disk layer (``cache_dir``) laid out content-addressed
  as ``<dir>/<key[:2]>/<key>.json`` with atomic (write-temp-then-rename)
  inserts, so a cache directory can be shared between server restarts —
  or even between concurrent servers — without torn reads.

Disk entries are **checksummed**: the stored file is a one-line header
(``repro-cache/2 <sha256-of-payload>``) followed by the artifact bytes.
A reader that finds a missing/garbled header or a payload that does not
hash to the header's digest — a bit flip, a truncated or torn write, a
foreign file — **quarantines** the entry (renames it to
``<key>.quarantined``) and reports a miss, so the service recomputes
instead of serving corruption.  Disk write failures degrade the entry to
memory-only rather than failing the request.

Fault-injection hooks (:data:`repro.resilience.faults.FAULTS`) sit on
the disk read and write paths; they cost one attribute check when no
fault plan is armed.

The cache is thread-safe; its ``hits``, ``misses``, ``quarantined`` and
``disk_write_errors`` counters feed the service's ``/v1/stats`` and
``/v1/metrics``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import OrderedDict

from ..resilience.faults import FAULTS

#: On-disk entry format marker; bump when the header layout changes.
DISK_FORMAT = b"repro-cache/2"

#: Artifacts the in-memory LRU holds before it evicts the oldest.
MAX_ENTRIES = 4096


def _frame(data: bytes) -> bytes:
    """Wrap artifact bytes in the checksummed on-disk frame."""
    digest = hashlib.sha256(data).hexdigest().encode("ascii")
    return DISK_FORMAT + b" " + digest + b"\n" + data


def _unframe(raw: bytes) -> bytes | None:
    """Verify a framed disk entry; ``None`` when corrupt or foreign."""
    header, sep, payload = raw.partition(b"\n")
    if not sep:
        return None
    parts = header.split(b" ")
    if len(parts) != 2 or parts[0] != DISK_FORMAT:
        return None
    if hashlib.sha256(payload).hexdigest().encode("ascii") != parts[1]:
        return None
    return payload


class AllocationCache:
    """Thread-safe content-addressed store of artifact bytes."""

    def __init__(
        self, cache_dir: str | None = None, max_entries: int = MAX_ENTRIES
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.disk_write_errors = 0
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def get(self, key: str) -> bytes | None:
        """Artifact bytes for *key*, or ``None`` on a miss."""
        found = self.get_entry(key)
        return None if found is None else found[0]

    def get_entry(self, key: str) -> tuple[bytes, str] | None:
        """Like :meth:`get`, but also names where the bytes came from
        (``"memory"`` or ``"disk"``) so callers can verify disk loads
        more aggressively than entries this process produced."""
        with self._lock:
            data = self._entries.get(key)
            if data is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return data, "memory"
        if self.cache_dir:
            data = self._read_disk(key)
            if data is not None:
                with self._lock:
                    self._remember(key, data)
                    self.hits += 1
                return data, "disk"
        with self._lock:
            self.misses += 1
        return None

    def _read_disk(self, key: str) -> bytes | None:
        """Read + checksum-verify one disk entry; quarantine on failure."""
        try:
            with open(self._path(key), "rb") as fh:
                raw = fh.read()
        except OSError:
            return None
        if FAULTS.enabled:
            raw, _ = FAULTS.corrupt("cache.disk.read", raw, label=key)
        payload = _unframe(raw)
        if payload is None:
            self.quarantine(key)
            return None
        return payload

    def quarantine(self, key: str) -> None:
        """Move a corrupt or distrusted entry out of the lookup path.

        The entry is dropped from memory and its disk file renamed to
        ``<key>.quarantined`` (kept for post-mortems, invisible to
        :meth:`get`), so the next request recomputes and re-inserts a
        clean entry — self-healing, never fail-silent.
        """
        with self._lock:
            self._entries.pop(key, None)
            self.quarantined += 1
        if self.cache_dir:
            path = self._path(key)
            try:
                os.replace(path, path[: -len(".json")] + ".quarantined")
            except OSError:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def put(self, key: str, data: bytes) -> None:
        """Insert artifact bytes under *key* (idempotent: same key, same
        content — a second insert is a no-op)."""
        with self._lock:
            self._remember(key, data)
        if self.cache_dir:
            path = self._path(key)
            if not os.path.exists(path):
                try:
                    self._write_disk(path, data, key)
                except OSError:
                    # A full/broken disk degrades the entry to
                    # memory-only instead of failing the request.
                    with self._lock:
                        self.disk_write_errors += 1

    def _write_disk(self, path: str, data: bytes, key: str) -> None:
        framed = _frame(data)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if FAULTS.enabled:
            point = FAULTS.fire("cache.disk.write", label=key)
            if point is not None:
                if point.mode == "error":
                    raise OSError("injected cache disk write error")
                if point.mode == "partial":
                    # A torn write lands on the *final* path, simulating
                    # a crashed non-atomic writer sharing the directory;
                    # the checksum frame is what catches it on read.
                    keep = int(point.detail.get("keep", len(framed) // 2))
                    with open(path, "wb") as fh:
                        fh.write(framed[: max(0, keep)])
                    return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(framed)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _remember(self, key: str, data: bytes) -> None:
        self._entries[key] = data
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return bool(self.cache_dir) and os.path.exists(self._path(key))

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "quarantined": self.quarantined,
                "disk_write_errors": self.disk_write_errors,
            }
