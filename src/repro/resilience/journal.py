"""Crash-safe run journal: append-only NDJSON with per-line checksums.

One journal lives next to each v3 shard-cache directory
(``journal.ndjson``).  It records the run's identity (a ``begin``
record: uarch, seed, corpus digest, shard count) followed by one
``shard`` record per completed shard — its content digest plus a
CRC-32 of the exact bytes the cache wrote for it.

The file is designed to be killed mid-write at any byte:

* every record carries a ``crc`` of its own serialized payload, so a
  torn final line (SIGKILL during ``write``) fails its self-check and
  is dropped on load instead of crashing the loader;
* records are appended with ``flush`` + ``fsync``, so a record that a
  resumed run acts on was durable before the shard was reported done;
* a journal whose ``begin`` record does not match the resuming run
  (different corpus, uarch, or seed) is rotated out and restarted —
  the shard cache itself stays valid either way, the journal only adds
  verification on top.

On resume the engine cross-checks every cache hit against the
journal's recorded checksum and quarantines mismatches (see
``repro.parallel.engine``), which is what turns "the cache file looks
like JSON" into "the cache file holds exactly the bytes a completed
shard wrote".
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Optional, TextIO

JOURNAL_VERSION = 1

#: Default journal filename inside a shard-cache directory.
JOURNAL_NAME = "journal.ndjson"


def journal_line(record: Dict) -> str:
    """Serialize a record with its own integrity checksum appended.

    The line format is shared beyond the run journal: the serve-side
    request journal (:mod:`repro.serve.requestlog`) reuses it so every
    crash-safe NDJSON file in the tree fails torn writes the same way.
    """
    payload = json.dumps(record, sort_keys=True)
    crc = zlib.crc32(payload.encode())
    return json.dumps({"crc": crc, "rec": record}, sort_keys=True)


def parse_journal_line(line: str) -> Optional[Dict]:
    """A record that passes its self-check, else ``None``."""
    try:
        doc = json.loads(line)
        record = doc["rec"]
        payload = json.dumps(record, sort_keys=True)
        if zlib.crc32(payload.encode()) != doc["crc"]:
            return None
        return record if isinstance(record, dict) else None
    except (ValueError, KeyError, TypeError):
        return None


class RunJournal:
    """Append-only NDJSON journal for one shard-cache directory."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[TextIO] = None
        #: digest -> checksum of the cache bytes, from prior runs.
        self.completed: Dict[str, int] = {}
        #: Records dropped for failing their self-check on load.
        self.torn_records = 0
        self.resumed = False

    # ------------------------------------------------------------------

    def open(self, meta: Dict) -> Dict[str, int]:
        """Open for this run; returns verified completions to resume.

        ``meta`` identifies the run (uarch, seed, corpus digest, shard
        count).  A prior journal with the same identity is continued —
        its intact ``shard`` records become :attr:`completed`.  A
        missing, corrupt, or mismatched journal starts fresh.
        """
        self.completed = {}
        self.torn_records = 0
        self.resumed = False
        prior = self._read_existing(meta)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if prior is not None:
            self.completed = prior
            self.resumed = True
            self._fh = open(self.path, "a")
            self._append({"kind": "resume", "meta": meta,
                          "known": len(prior)})
        else:
            self._fh = open(self.path, "w")
            self._append({"kind": "begin",
                          "version": JOURNAL_VERSION, "meta": meta})
        return dict(self.completed)

    def _read_existing(self, meta: Dict) -> Optional[Dict[str, int]]:
        """Completions from a compatible prior journal, else ``None``."""
        try:
            with open(self.path) as fh:
                lines = fh.read().splitlines()
        except OSError:
            return None
        completed: Dict[str, int] = {}
        begun = False
        for line in lines:
            if not line.strip():
                continue
            record = parse_journal_line(line)
            if record is None:
                self.torn_records += 1
                continue
            kind = record.get("kind")
            if kind == "begin":
                if record.get("version") != JOURNAL_VERSION \
                        or record.get("meta") != meta:
                    return None  # different run: rotate
                begun = True
            elif kind == "shard":
                digest = record.get("digest")
                checksum = record.get("checksum")
                if isinstance(digest, str) \
                        and isinstance(checksum, int):
                    completed[digest] = checksum
        return completed if begun else None

    # ------------------------------------------------------------------

    def record_shard(self, digest: str, index: int,
                     checksum: int) -> None:
        """Durably record one completed shard (flush + fsync)."""
        self._append({"kind": "shard", "digest": digest,
                      "index": index, "checksum": checksum})
        self.completed[digest] = checksum

    def _append(self, record: Dict) -> None:
        assert self._fh is not None, "journal not opened"
        self._fh.write(journal_line(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
