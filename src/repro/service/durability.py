"""Write-ahead job journal: crash-durable accepted-work semantics.

The in-memory queue (:mod:`repro.service.queue`) loses every
accepted-but-unfinished job when its process dies.  The
:class:`JobJournal` closes that window with a write-ahead log in the
same spirit as the ``repro-cache/2`` disk format (PR 5): every record
is one self-describing, sha256-checksummed JSONL **frame**::

    repro-journal/1 <sha256-of-payload> <canonical-json-payload>\\n

Two record types move a job through the journal:

* ``accepted`` — appended *before* the submit returns, carrying the
  full normalized request (ir/file/method/flags/machine) plus the job
  id, so the job can be rebuilt byte-identically after a crash;
* ``terminal`` — appended when the job reaches ``done`` / ``failed`` /
  dead-letter, carrying the outcome (and the failure reason for
  dead-letters, which makes the dead-letter list itself durable).

**Replay** scans checkpoint-then-journal and returns the jobs that were
accepted but never reached a terminal frame.  Recovery is idempotent by
construction: results are content-addressed, so a replayed job whose
artifact already landed in the cache completes instantly and
byte-identically — *exactly-once by idempotency*, not by consensus.

Corruption handling mirrors the cache's fail-stop posture:

* a **torn final frame** (the crash happened mid-``write``) is
  truncated away — the job it described was never acknowledged, so
  dropping it is correct;
* a corrupt frame **mid-file** (bit rot, a torn write that later
  appends happened to survive) is quarantined to ``quarantine.jsonl``
  and skipped — never silently trusted, never fatal to its neighbours.

**Compaction** folds the journal into ``checkpoint.jsonl`` (atomic
tmp+rename) once terminal frames dominate the live set, so the journal
stays proportional to in-flight work plus a bounded tail of finished
jobs, not to service lifetime.  The checkpoint keeps the terminal
records of the last :data:`JOB_RETENTION` finished jobs (they hold no
IR), so a job a client saw finish stays pollable across any number of
restarts.

The ``queue.journal`` fault site (modes ``torn-write`` / ``error``)
injects exactly these failures for the chaos suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field

from ..resilience import FAULTS, InjectedFault

#: Frame format tag; bump on incompatible frame/record changes.
JOURNAL_FORMAT = "repro-journal/1"

#: Dead-letter records kept, by the journal and by the service's
#: in-memory list alike (oldest dropped beyond this).
DEAD_LETTER_LIMIT = 64

#: Finished jobs kept pollable, by the service's job table and by the
#: journal's terminal records alike (oldest dropped beyond this).
JOB_RETENTION = 1024

#: Frames accumulated before compaction is considered (the journal
#: compacts once terminal frames also outnumber pending jobs).
COMPACT_MIN_FRAMES = 256


def frame_record(record: dict) -> bytes:
    """One checksummed JSONL frame for *record* (trailing newline)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"{JOURNAL_FORMAT} {digest} {payload}\n".encode("utf-8")


def parse_frame(line: bytes) -> dict | None:
    """Decode one frame; ``None`` on any structural/checksum mismatch."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text.endswith("\n"):
        return None  # torn write: the newline is the commit marker
    parts = text.rstrip("\n").split(" ", 2)
    if len(parts) != 3 or parts[0] != JOURNAL_FORMAT:
        return None
    _, digest, payload = parts
    if hashlib.sha256(payload.encode("utf-8")).hexdigest() != digest:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


@dataclass
class JournalReplay:
    """What a :meth:`JobJournal.replay` found on disk."""

    #: ``accepted`` records (in journal order) with no terminal frame —
    #: the jobs recovery must re-enqueue.
    pending: list = field(default_factory=list)
    #: Durable dead-letter records (terminal ``dead_lettered`` frames
    #: plus checkpointed snapshots), oldest first.
    dead_letter: list = field(default_factory=list)
    #: Every ``terminal`` record, checkpoint then journal (last one per
    #: job id wins) — recovery re-materializes finished jobs from these
    #: as pollable tombstones, so clients that saw a job complete can
    #: still fetch its status/result across restarts.
    finished: list = field(default_factory=list)
    frames: int = 0
    accepted: int = 0
    terminal: int = 0
    #: 1 when a torn final frame was truncated away.
    truncated: int = 0
    #: Corrupt mid-file frames moved to ``quarantine.jsonl``.
    quarantined: int = 0


class JobJournal:
    """Append-only write-ahead journal for one :class:`AllocationService`.

    Thread-safe; appends are serialized under one lock.  ``flush`` after
    every frame survives a SIGKILL of the process (the bytes are in the
    page cache); pass ``fsync=True`` to also survive power loss at the
    cost of one ``fsync(2)`` per frame.
    """

    JOURNAL = "journal.jsonl"
    CHECKPOINT = "checkpoint.jsonl"
    QUARANTINE = "quarantine.jsonl"

    def __init__(self, directory: str, *, fsync: bool = False):
        self.directory = directory
        self.fsync = fsync
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        self._fh = None
        #: job_id -> accepted record, for every job without a terminal
        #: frame yet (mirrors what a replay of the current disk state
        #: would return as pending).
        self._pending: dict[str, dict] = {}
        #: job_id -> terminal record (without its dead-letter payload)
        #: of the last :data:`JOB_RETENTION` finished jobs, oldest first.
        self._finished: dict[str, dict] = {}
        self._dead: list[dict] = []
        self._frames_since_compact = 0
        self._terminal_since_compact = 0
        self.counters = {
            "appended": 0,
            "append_errors": 0,
            "compactions": 0,
            "replayed_frames": 0,
            "truncated_frames": 0,
            "quarantined_frames": 0,
        }

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, self.JOURNAL)

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, self.CHECKPOINT)

    @property
    def quarantine_path(self) -> str:
        return os.path.join(self.directory, self.QUARANTINE)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def record_accepted(self, job) -> None:
        """Journal one accepted job before its submit returns."""
        record = {
            "type": "accepted",
            "job_id": job.job_id,
            "key": job.key,
            "kind": job.kind,
            "ir": job.ir,
            "file": job.file_spec,
            "method": job.requested_method,
            "flags": job.flags,
            "machine": job.machine,
            "deadline_ms": (
                None if job.deadline_s is None
                else job.deadline_s * 1000.0
            ),
        }
        with self._lock:
            self._pending[job.job_id] = record
            self._append(record)

    def record_terminal(
        self,
        job_id: str,
        status: str,
        *,
        key: str | None = None,
        served_method: str | None = None,
        degraded: bool = False,
        error: str | None = None,
        dead_letter: dict | None = None,
        attempts: int = 0,
    ) -> None:
        """Journal a terminal state (``done``/``failed``/superseded).

        *dead_letter*, when given, is the service's dead-letter record;
        it rides in the frame so the dead-letter list survives a crash.
        """
        record = {
            "type": "terminal",
            "job_id": job_id,
            "status": status,
            "key": key,
            "served_method": served_method,
            "degraded": degraded,
            "error": error,
            "attempts": attempts,
        }
        if dead_letter is not None:
            record["dead_letter"] = dead_letter
        with self._lock:
            self._pending.pop(job_id, None)
            self._keep_finished(record)
            if dead_letter is not None:
                self._dead.append(dead_letter)
                del self._dead[:-DEAD_LETTER_LIMIT]
            self._terminal_since_compact += 1
            self._append(record)
        self.maybe_compact()

    def _keep_finished(self, record: dict) -> None:
        """Remember a terminal record for the checkpoint, bounded to the
        last :data:`JOB_RETENTION` jobs.  The dead-letter payload stays
        out (the checkpoint's ``dead-letter`` frames carry it, so each
        dead letter replays once); a flag keeps the job's view."""
        kept = {k: v for k, v in record.items() if k != "dead_letter"}
        if "dead_letter" in record:
            kept["dead_lettered"] = True
        self._finished.pop(record["job_id"], None)
        self._finished[record["job_id"]] = kept
        while len(self._finished) > JOB_RETENTION:
            del self._finished[next(iter(self._finished))]

    def drop_pending(self, job_id: str) -> None:
        """Forget a pending entry without a terminal frame.

        Used by recovery for replayed jobs that resolved out-of-band
        (cache hit, coalesced onto another recovered job); the next
        compaction persists the removal.
        """
        with self._lock:
            self._pending.pop(job_id, None)

    def _append(self, record: dict) -> None:
        frame = frame_record(record)
        if FAULTS.enabled:
            point = FAULTS.fire("queue.journal", label=record.get("type", "?"))
            if point is not None:
                if point.mode == "torn-write":
                    # A crash mid-write: only a prefix of the frame
                    # reaches the file, and the process "dies" before
                    # any later append (replay truncates it away).
                    keep = float(point.detail.get("keep", 0.5))
                    torn = frame[: max(1, int(len(frame) * keep))]
                    self._write(torn.rstrip(b"\n"))
                    return
                if point.mode == "error":
                    self.counters["append_errors"] += 1
                    raise InjectedFault(point.site, point.mode)
        self._write(frame)
        self.counters["appended"] += 1
        self._frames_since_compact += 1

    def _write(self, data: bytes) -> None:
        if self._fh is None:
            self._fh = open(self.journal_path, "ab")
        self._fh.write(data)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def sync(self) -> None:
        """Flush + fsync the journal (the SIGTERM graceful-drain step)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> JournalReplay:
        """Scan checkpoint-then-journal and rebuild the live set.

        Also primes this journal's in-memory state so subsequent
        appends/compactions continue from what disk says.  A torn final
        frame in the journal is truncated away (the write never
        committed); a corrupt frame anywhere else is quarantined.
        """
        replay = JournalReplay()
        accepted: dict[str, dict] = {}  # job_id -> record, insertion-ordered
        dead: list[dict] = []

        def _consume(record: dict) -> None:
            replay.frames += 1
            rtype = record.get("type")
            if rtype == "accepted" and record.get("job_id"):
                replay.accepted += 1
                accepted[record["job_id"]] = record
            elif rtype == "terminal":
                replay.terminal += 1
                accepted.pop(record.get("job_id"), None)
                replay.finished.append(record)
                if record.get("dead_letter") is not None:
                    dead.append(record["dead_letter"])
            elif rtype == "dead-letter":
                dead.append(record.get("record") or {})

        with self._lock:
            self.close()
            self._scan_file(self.checkpoint_path, _consume, replay, tail_truncate=False)
            self._scan_file(self.journal_path, _consume, replay, tail_truncate=True)
            del dead[:-DEAD_LETTER_LIMIT]
            replay.pending = list(accepted.values())
            replay.dead_letter = list(dead)
            self._pending = dict(accepted)
            self._finished = {}
            for record in replay.finished:
                if record.get("job_id"):
                    self._keep_finished(record)
            self._dead = list(dead)
            self._frames_since_compact = 0
            self._terminal_since_compact = 0
            self.counters["replayed_frames"] += replay.frames
        return replay

    def _scan_file(self, path, consume, replay, *, tail_truncate: bool) -> None:
        """Scan one frame file, healing it in place.

        Valid frames are consumed in order.  An invalid *final* frame of
        the journal is a torn write — truncated, not quarantined (its
        submit never returned, so nothing was promised).  Any other
        invalid frame is copied to ``quarantine.jsonl`` and dropped.
        Either way the file is atomically rewritten to only the valid
        frames, so a second replay sees a clean file.
        """
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            raw = fh.read()
        if not raw:
            return
        good: list[bytes] = []
        dirty = False
        offset, length = 0, len(raw)
        while offset < length:
            newline = raw.find(b"\n", offset)
            if newline == -1:  # open tail: the commit newline never landed
                framed, next_offset, record = raw[offset:], length, None
            else:
                framed = raw[offset : newline + 1]
                next_offset = newline + 1
                record = parse_frame(framed)
            if record is None:
                dirty = True
                if tail_truncate and next_offset >= length:
                    replay.truncated += 1
                    self.counters["truncated_frames"] += 1
                else:
                    replay.quarantined += 1
                    self.counters["quarantined_frames"] += 1
                    with open(self.quarantine_path, "ab") as q:
                        q.write(framed.rstrip(b"\n") + b"\n")
            else:
                good.append(framed)
                consume(record)
            offset = next_offset
        if dirty:
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(b"".join(good))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def maybe_compact(self) -> bool:
        """Compact once the journal is mostly terminal noise.

        Triggers when at least :data:`COMPACT_MIN_FRAMES` frames accumulated
        since the last compaction *and* terminal frames outnumber the
        live (pending) set — i.e. most of the file no longer describes
        in-flight work.
        """
        with self._lock:
            if self._frames_since_compact < COMPACT_MIN_FRAMES:
                return False
            if self._terminal_since_compact <= len(self._pending):
                return False
        return self.compact()

    def compact(self) -> bool:
        """Fold journal+checkpoint into a fresh checkpoint atomically.

        The checkpoint holds one ``accepted`` frame per pending job, one
        ``terminal`` frame per retained finished job and one
        ``dead-letter`` frame per durable dead-letter record; the journal
        restarts empty.  Replaying the compacted pair yields what
        replaying the full journal would have, within those bounds.
        """
        with self._lock:
            tmp = self.checkpoint_path + ".tmp"
            with open(tmp, "wb") as fh:
                for record in self._pending.values():
                    fh.write(frame_record(record))
                for record in self._finished.values():
                    fh.write(frame_record(record))
                for record in self._dead:
                    fh.write(frame_record({"type": "dead-letter", "record": record}))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.checkpoint_path)
            self.close()
            with open(self.journal_path, "wb"):
                pass  # truncate; reopened lazily on next append
            self._frames_since_compact = 0
            self._terminal_since_compact = 0
            self.counters["compactions"] += 1
        return True

    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict:
        with self._lock:
            stats = dict(self.counters)
            stats["pending"] = len(self._pending)
            stats["dead_letter"] = len(self._dead)
            stats["directory"] = self.directory
            stats["fsync"] = self.fsync
        return stats
