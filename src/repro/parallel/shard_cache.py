"""The result store: one append-only log of self-checked records per uarch.

A measurement is a pure function of (block text, uarch, seed) — even
the simulated noise is seeded from a CRC of the text — so the store
keys results by exactly that, and every caller shares it: the
pipeline's rows, ``repro validate --resume``, ``repro corpus --resume``
(list and ``--stream``) and ``repro serve``.  Layout (under
``.cache/``, or the daemon's state directory)::

    results_<seed>/
        <uarch>.log        # one record per line, append-only
        quarantine/        # a copy of each line that failed a check

A record is one :func:`repro.resilience.journal.journal_line`::

    {"crc": <CRC-32 of rec>, "rec": {"version": 1, "uarch": ...,
                                     "text": ..., "entry": ...}}

where ``entry`` is :func:`repro.profiler.harness.result_entry`: the
throughput of an accepted block or the reason it was dropped, plus
its truthy ``extra`` keys — everything the accept/drop fold reads.

**Writes.**  :meth:`ShardCache.store` appends one whole line with one
``write()`` on an ``O_APPEND`` descriptor, under an exclusive
``flock``, and closes the descriptor before it returns.  Nothing
rewrites a complete line.  A writer killed mid-``write`` leaves an
unterminated tail: it is neither a hit nor quarantined, and the next
writer cuts it off under the lock before it appends
(:func:`repro.resilience.journal.truncate_torn_tail`).

**Reads.**  Each uarch's log is read sequentially, on first use, into
an in-memory index: blake2b-128 of the text → offset and length of the
last good line; the store's own appends join it.  A lookup that misses
while the log has grown past the offset the index last scanned first
scans just the new bytes, so a record another process appended since
is a hit (an own append the scan meets again is indexed again, to the
same place).  :meth:`ShardCache.load` re-reads the indexed line and
checks it again — CRC, version, uarch, text, entry shape — so two
blocks can never share a record, and a line damaged after the index
was built is caught.  A complete line that fails a check (at a scan or
at a load) is copied once into ``quarantine/`` and counted, unless
strict mode promotes the corruption into a
:class:`repro.errors.StrictModeViolation`; later scans find its copy
and skip it.  Two processes that miss the same block at once both
profile it and append it; duplicates hold equal bytes, and the last
good line wins.

Writes run under the resilience retry policy: a transient ``OSError``
(including the injected ``write_oserror`` chaos point) is retried with
deterministic jittered backoff; persistent failure (e.g. disk full)
degrades to "not stored" instead of failing the run.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import os
import zlib
from typing import Dict, List, Optional, Tuple

from repro.resilience import chaos
from repro.resilience import policy as resilience
from repro.resilience.journal import (journal_line, parse_journal_line,
                                      truncate_torn_tail)
from repro.telemetry import cachestats
from repro.telemetry import core as telemetry

#: Version every record carries; a record of another version is
#: quarantined and its block re-profiled.
RECORD_VERSION = 1

#: Subdirectory corrupt lines are copied to instead of raising.
QUARANTINE_DIR = "quarantine"

#: What the ``cache_garbage`` chaos point writes over a record.
_GARBAGE = b"\x00garbage\x7f not json {{{"

# Default provider so the unified ``caches`` section always carries a
# ``shard`` row (pure counter read); opening a store replaces it with
# an instance-bound provider that also reports the record count.
cachestats.register_provider(
    "shard", lambda: cachestats.registry_stats("shard"))


def store_directory(root: str, seed: int) -> str:
    """The store for one seed under ``root``."""
    return os.path.join(root, f"results_{seed}")


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def record_key(uarch: str, text: str) -> str:
    """Name of the (uarch, text) record in events and chaos decisions."""
    return f"{uarch}-{_digest(text).hex()}"


def _entry(record: Optional[Dict], uarch: str, text) -> Optional[Dict]:
    """The entry of a checked record of (``uarch``, ``text``), or
    ``None`` when ``record`` is not one."""
    if record is None:
        return None
    entry = record.get("entry")
    if record.get("version") != RECORD_VERSION \
            or record.get("uarch") != uarch \
            or record.get("text") != text \
            or not isinstance(entry, dict) \
            or ("throughput" in entry) == ("reason" in entry):
        return None
    return entry


class ShardCache:
    """The block-keyed result store for one seed: a log per uarch."""

    def __init__(self, directory: str,
                 retry: Optional[resilience.RetryPolicy] = None):
        self.directory = directory
        self.retry = retry or resilience.default_retry_policy()
        os.makedirs(directory, exist_ok=True)
        #: uarch -> text digest -> (offset, length) of its last good line.
        self._indexes: Dict[str, Dict[bytes, Tuple[int, int]]] = {}
        #: uarch -> end of the last complete line its index has scanned.
        self._scanned: Dict[str, int] = {}
        # The unified ``caches`` section tracks the most recently
        # opened store (runs open one per seed); hit/miss counts come
        # from the engine's ``cache.shard.*`` counters.
        cachestats.register_provider("shard", self._cache_stats)

    def _cache_stats(self) -> cachestats.CacheStats:
        stats = cachestats.registry_stats("shard")
        try:
            stats.size = len(self)
        except OSError:
            pass
        return stats

    # ------------------------------------------------------------------

    def log_path(self, uarch: str) -> str:
        return os.path.join(self.directory, f"{uarch}.log")

    def __contains__(self, key) -> bool:
        uarch, text = key
        return self._find(uarch, _digest(text)) is not None

    def __len__(self) -> int:
        """Distinct records across every uarch's log."""
        return sum(len(self._index(name[:-len(".log")]))
                   for name in os.listdir(self.directory)
                   if name.endswith(".log"))

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIR)

    def quarantined_files(self) -> List[str]:
        try:
            return sorted(os.listdir(self.quarantine_dir))
        except OSError:
            return []

    # ------------------------------------------------------------------

    def _index(self, uarch: str) -> Dict[bytes, Tuple[int, int]]:
        index = self._indexes.get(uarch)
        if index is None:
            index = self._indexes[uarch] = {}
            self._scanned[uarch] = 0
            self._scan(uarch)
        return index

    def _find(self, uarch: str, key: bytes) -> Optional[Tuple[int, int]]:
        """Where the last good line for ``key`` is, catching up with
        whatever other processes appended before calling it a miss."""
        index = self._index(uarch)
        at = index.get(key)
        if at is None and self._grown(uarch):
            self._scan(uarch)
            at = index.get(key)
        return at

    def _grown(self, uarch: str) -> bool:
        try:
            return os.stat(self.log_path(uarch)).st_size \
                > self._scanned[uarch]
        except OSError:
            return False

    def _scan(self, uarch: str) -> None:
        """Index the log's complete lines past the scanned offset, one
        sequential read: the last good line per text."""
        index = self._indexes[uarch]
        try:
            fh = open(self.log_path(uarch), "rb")
        except OSError:
            return  # no log yet: every block misses
        with fh:
            # Shared: no writer is mid-append or cutting a torn tail.
            fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
            offset = self._scanned[uarch]
            fh.seek(offset)
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn tail: the next store cuts it off
                record = parse_journal_line(line)
                text = record.get("text") if record else None
                if isinstance(text, str) \
                        and _entry(record, uarch, text) is not None:
                    index[_digest(text)] = (offset, len(line))
                else:
                    self._quarantine(uarch, offset, line, record)
                offset += len(line)
        self._scanned[uarch] = offset

    def _quarantine(self, uarch: str, offset: int, line: bytes,
                    record: Optional[Dict]) -> None:
        """Copy a bad line to ``quarantine/`` once (or raise in strict
        mode); a line an earlier scan copied is skipped."""
        name = f"{uarch}-{offset}-{zlib.crc32(line):08x}.line"
        dest = os.path.join(self.quarantine_dir, name)
        if os.path.exists(dest):
            return
        reason = "failed its self-check" if record is None \
            else "wrong version, uarch, text or entry"
        resilience.quarantine_or_raise(
            f"corrupt store record {uarch}.log@{offset}", reason)
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            with open(dest, "xb") as fh:
                fh.write(line)
        except OSError:
            return  # copied by a racing reader, or no room
        telemetry.count("resilience.quarantined.cache_files")
        telemetry.count("cache.shard.evictions")
        telemetry.event("resilience.cache_file_quarantined",
                        file=name, reason=reason)

    # ------------------------------------------------------------------

    def load(self, uarch: str, text: str) -> Optional[Dict]:
        """The stored entry for ``text`` on ``uarch``, or ``None``.

        The indexed line is re-read and checked again; one that fails
        is quarantined and reads as a miss.
        """
        key = _digest(text)
        at = self._find(uarch, key)
        if at is None:
            return None  # plain miss
        offset, length = at
        try:
            fd = os.open(self.log_path(uarch), os.O_RDONLY)
            try:
                line = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        except OSError:
            return None
        record = parse_journal_line(line)
        entry = _entry(record, uarch, text)
        if entry is None:
            self._quarantine(uarch, offset, line, record)
            del self._indexes[uarch][key]
            return None
        return entry

    def store(self, uarch: str, text: str, entry: Dict) -> bool:
        """Append one entry to the uarch's log; ``False`` when the
        write ultimately failed and the run degraded to "not stored"
        (salvage mode; strict mode raises)."""
        line = (journal_line({"version": RECORD_VERSION, "uarch": uarch,
                              "text": text, "entry": entry})
                + "\n").encode()
        key, name = _digest(text), record_key(uarch, text)
        path = self.log_path(uarch)
        index = self._index(uarch)

        def attempt_write(attempt: int) -> int:
            if attempt == 0 and chaos.fire("write_oserror", name):
                raise OSError(errno.EIO,
                              "chaos: transient write error")
            if chaos.fire("disk_full", name, count=attempt == 0):
                raise OSError(errno.ENOSPC, "chaos: disk full")
            fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT,
                         0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                offset = truncate_torn_tail(fd)
                if os.write(fd, line) != len(line):
                    # The torn part is cut off by the next attempt.
                    raise OSError(errno.ENOSPC, "short write")
                return offset
            finally:
                os.close(fd)  # releases the lock

        try:
            offset = self.retry.run(attempt_write, key=name)
        except OSError as exc:
            telemetry.count("resilience.cache_write_failures")
            telemetry.event("resilience.cache_write_failure",
                            record=name, error=type(exc).__name__)
            resilience.quarantine_or_raise(
                f"store write failed for record {name}", str(exc))
            return False
        index[key] = (offset, len(line))
        if offset == self._scanned[uarch]:
            # Nobody else appended since the last scan: no need to
            # read this line back.
            self._scanned[uarch] = offset + len(line)
        self._maybe_corrupt_after_write(name, path, offset, line)
        return True

    @staticmethod
    def _maybe_corrupt_after_write(name: str, path: str, offset: int,
                                   line: bytes) -> None:
        """Chaos points simulating a write that *looked* durable but
        left a truncated or garbage record for the next reader: the
        bad bytes replace the line in place, newline kept.  An
        ``O_APPEND`` descriptor cannot write at an offset, so this
        opens a second one."""
        if chaos.fire("cache_truncate", name):
            bad = line[:max(1, len(line) // 2)]
        elif chaos.fire("cache_garbage", name):
            bad = _GARBAGE
        else:
            return
        width = len(line) - 1
        fd = os.open(path, os.O_WRONLY)
        try:
            os.pwrite(fd, bad[:width].ljust(width) + b"\n", offset)
        finally:
            os.close(fd)
