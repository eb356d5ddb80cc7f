"""Crash-safe request journal: SIGKILL → restart replays pending work.

Admitted profiling requests are durably appended (``req`` record)
*before* any work runs, and their results appended (``done`` record)
*before* the response goes out.  Lines reuse the CRC-self-checked
format of :func:`repro.resilience.journal.journal_line`, so a daemon
killed mid-write leaves at worst one torn final line that fails its
self-check and is dropped on load — never a parse error.  Reopening
cuts that line off before the first append, so it cannot glue onto
(and take down) the next record.

On startup :meth:`RequestJournal.open` returns the requests that have
a ``req`` record but no matching ``done``: the service re-executes
them before accepting new traffic.  Because requests are
content-addressed (digest over uarch, seed, and block texts) and the
engine is deterministic, the replayed ``done`` records carry results
byte-identical to what an uninterrupted run would have produced — the
daemon lifecycle suite holds it to that across serial and pooled
backends.

The journal is also the deduplication memo: a ``done`` record doubles
as a request-level cache, so an identical request replays its recorded
results without touching the engine at all.

The daemon appends from several threads at once (``req`` records
from request handlers, ``done`` records from the batcher), so every
append holds one lock across write, flush and fsync.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, TextIO, Tuple

from repro.resilience.journal import (journal_line, parse_journal_line,
                                      truncate_torn_tail)

LOG_VERSION = 1

#: Request-journal filename inside the serve state directory.
REQUEST_LOG_NAME = "requests.ndjson"


class RequestJournal:
    """Append-only NDJSON journal of admitted requests and results."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[TextIO] = None
        self._lock = threading.Lock()
        #: Records dropped for failing their self-check on load.
        self.torn_records = 0
        #: digest -> request body for reqs with no done record yet.
        self.pending: Dict[str, Dict] = {}
        #: digest -> recorded results (request-level dedup memo).
        self.completed: Dict[str, List] = {}

    # ------------------------------------------------------------------

    def open(self) -> Dict[str, Dict]:
        """Open for appending; returns pending requests to replay.

        A prior journal is always continued — request records are
        content-addressed, so there is no run identity to mismatch.
        """
        self.pending = {}
        self.completed = {}
        self.torn_records = 0
        self._read_existing()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "a+")
        with self._lock:  # the daemon is the journal's only writer
            truncate_torn_tail(self._fh.fileno())
        if not os.path.getsize(self.path):
            self._append({"kind": "begin", "version": LOG_VERSION})
        return dict(self.pending)

    def _read_existing(self) -> None:
        try:
            with open(self.path) as fh:
                lines = fh.read().splitlines()
        except OSError:
            return
        for line in lines:
            if not line.strip():
                continue
            record = parse_journal_line(line)
            if record is None:
                self.torn_records += 1
                continue
            kind = record.get("kind")
            digest = record.get("id")
            if kind == "req" and isinstance(digest, str):
                body = record.get("body")
                if isinstance(body, dict):
                    self.pending[digest] = body
            elif kind == "done" and isinstance(digest, str):
                self.pending.pop(digest, None)
                results = record.get("results")
                # Dropped closeouts (deadline, unreplayable) clear
                # pending but must not memoize an empty answer.
                if isinstance(results, list) \
                        and "dropped" not in record:
                    self.completed[digest] = results

    # ------------------------------------------------------------------

    def record_request(self, digest: str, body: Dict) -> None:
        """Durably admit one request (flush + fsync before any work)."""
        self._append({"kind": "req", "id": digest, "body": body})
        self.pending[digest] = body

    def record_done(self, digest: str, results: List) -> None:
        """Durably record one request's results before responding."""
        self._append({"kind": "done", "id": digest, "results": results})
        self.pending.pop(digest, None)
        self.completed[digest] = results

    def record_dropped(self, digest: str, reason: str) -> None:
        """Close out a request that will never produce results.

        Deadline-expired or poisoned requests must not replay forever:
        a ``done`` record with an empty result list and a reason keeps
        the journal's pending set honest while staying visible.
        """
        self._append({"kind": "done", "id": digest, "results": [],
                      "dropped": reason})
        self.pending.pop(digest, None)

    def _append(self, record: Dict) -> None:
        assert self._fh is not None, "request journal not opened"
        line = journal_line(record) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_done_records(path: str) -> List[Tuple[str, List]]:
    """All intact ``done`` records in append order (test helper)."""
    out: List[Tuple[str, List]] = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return out
    for line in lines:
        record = parse_journal_line(line)
        if record and record.get("kind") == "done":
            out.append((record.get("id"), record.get("results")))
    return out
