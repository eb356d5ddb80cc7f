"""The result store: one self-checked record per (uarch, block text).

A measurement is a pure function of (block text, uarch, seed) — even
the simulated noise is seeded from a CRC of the text — so the store
keys results by exactly that, and every caller shares it: the
pipeline's rows, ``repro validate --resume``, ``repro corpus --resume``
(list and ``--stream``) and ``repro serve``.  Layout (under
``.cache/``, or the daemon's state directory)::

    results_<seed>/
        <uarch>-<blake2b-128 of the text>.json   # one record
        quarantine/                              # records that failed

A record is one :func:`repro.resilience.journal.journal_line`::

    {"crc": <CRC-32 of rec>, "rec": {"version": 1, "uarch": ...,
                                     "text": ..., "entry": ...}}

where ``entry`` is :func:`repro.profiler.harness.result_entry`: the
throughput of an accepted block or the reason it was dropped, plus
its truthy ``extra`` keys — everything the accept/drop fold reads.
Record names hash the whole text, and a load checks the text itself,
so two blocks can never share a record.

Every write is atomic (temp file + ``os.replace``), so a run killed
mid-write leaves at worst an orphaned ``*.tmp`` the loader ignores;
it can never leave a half-written record visible.  Orphaned temps
from crashed runs are swept when the store is opened (a live
writer's temp — its pid is embedded in the name — is left alone).
Loads are defensive: a record that fails its CRC, or whose version,
uarch or text does not match, reads as a miss — and the file is moved
to ``quarantine/`` (rather than left to fail again every run) unless
strict mode promotes the corruption into a
:class:`repro.errors.StrictModeViolation`.  A killed run therefore
resumes from the records it wrote: each is a store hit.

Writes run under the resilience retry policy: a transient ``OSError``
(including the injected ``write_oserror`` chaos point) is retried with
deterministic jittered backoff; persistent failure (e.g. disk full)
degrades to "not stored" instead of failing the run.
"""

from __future__ import annotations

import errno
import hashlib
import os
from typing import Dict, List, Optional

from repro.resilience import chaos
from repro.resilience import policy as resilience
from repro.resilience.journal import journal_line, parse_journal_line
from repro.telemetry import cachestats
from repro.telemetry import core as telemetry

#: Version every record carries; a record of another version is
#: quarantined and its block re-profiled.
RECORD_VERSION = 1

#: Subdirectory corrupt records are moved to instead of raising.
QUARANTINE_DIR = "quarantine"

# Default provider so the unified ``caches`` section always carries a
# ``shard`` row (pure counter read); opening a store replaces it with
# an instance-bound provider that also reports the record count.
cachestats.register_provider(
    "shard", lambda: cachestats.registry_stats("shard"))


def store_directory(root: str, seed: int) -> str:
    """The store for one seed under ``root``."""
    return os.path.join(root, f"results_{seed}")


def record_name(uarch: str, text: str) -> str:
    """File name of the (uarch, text) record."""
    digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
    return f"{uarch}-{digest}.json"


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid currently running?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # e.g. EPERM: exists but not ours
    return True


class ShardCache:
    """The block-keyed result store for one seed, with atomic writes."""

    def __init__(self, directory: str,
                 retry: Optional[resilience.RetryPolicy] = None):
        self.directory = directory
        self.retry = retry or resilience.default_retry_policy()
        os.makedirs(directory, exist_ok=True)
        self._sweep_stale_temps()
        # The unified ``caches`` section tracks the most recently
        # opened store (runs open one per seed); hit/miss counts come
        # from the engine's ``cache.shard.*`` counters.
        cachestats.register_provider("shard", self._cache_stats)

    def _cache_stats(self) -> cachestats.CacheStats:
        stats = cachestats.registry_stats("shard")
        try:
            stats.size = len(self.record_files())
        except OSError:
            pass
        return stats

    # ------------------------------------------------------------------

    def path_for(self, uarch: str, text: str) -> str:
        return os.path.join(self.directory, record_name(uarch, text))

    def __contains__(self, key) -> bool:
        return os.path.exists(self.path_for(*key))

    def record_files(self) -> List[str]:
        return sorted(name for name in os.listdir(self.directory)
                      if name.endswith(".json"))

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIR)

    def quarantined_files(self) -> List[str]:
        try:
            return sorted(os.listdir(self.quarantine_dir))
        except OSError:
            return []

    # ------------------------------------------------------------------

    def _sweep_stale_temps(self) -> None:
        """Remove ``*.tmp`` orphans left by prior crashed runs.

        Temp names embed the writing pid (``<record>.<pid>.tmp``); a
        temp whose writer is dead — or whose name does not parse — is
        an orphan from a crash and is deleted, as is one carrying our
        own pid (a previous incarnation's: we have not written yet).
        A live writer's temp (another process racing this one) is
        left for it to finish.
        """
        swept = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(".tmp"):
                continue
            try:
                pid = int(name.split(".")[-2])
            except (IndexError, ValueError):
                pid = None
            if pid is not None and pid != os.getpid() \
                    and _pid_alive(pid):
                continue
            try:
                os.unlink(os.path.join(self.directory, name))
                swept += 1
            except OSError:
                pass
        if swept:
            telemetry.count("resilience.stale_temps_swept", swept)
            telemetry.event("resilience.stale_temps_swept",
                            directory=self.directory, count=swept)

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a corrupt record to ``quarantine/`` (or raise in strict)."""
        resilience.quarantine_or_raise(
            f"corrupt store record {os.path.basename(path)}", reason)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        dest = os.path.join(self.quarantine_dir,
                            os.path.basename(path))
        try:
            os.replace(path, dest)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                return
        telemetry.count("resilience.quarantined.cache_files")
        telemetry.count("cache.shard.evictions")
        telemetry.event("resilience.cache_file_quarantined",
                        file=os.path.basename(path), reason=reason)

    # ------------------------------------------------------------------

    def load(self, uarch: str, text: str) -> Optional[Dict]:
        """The stored entry for ``text`` on ``uarch``, or ``None``.

        A record that exists but fails its check — torn, garbage, a
        CRC mismatch, another version, uarch or text — is quarantined
        so it cannot fail again on every future run.
        """
        path = self.path_for(uarch, text)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None  # plain miss
        record = parse_journal_line(data)
        if record is None:
            self._quarantine(path, "failed its self-check")
            return None
        entry = record.get("entry")
        if record.get("version") != RECORD_VERSION \
                or record.get("uarch") != uarch \
                or record.get("text") != text \
                or not isinstance(entry, dict) \
                or ("throughput" in entry) == ("reason" in entry):
            self._quarantine(path, "wrong version, uarch, text or entry")
            return None
        return entry

    def store(self, uarch: str, text: str, entry: Dict) -> bool:
        """Atomically persist one entry; ``False`` when the write
        ultimately failed and the run degraded to "not stored" (salvage
        mode; strict mode raises)."""
        data = journal_line({"version": RECORD_VERSION, "uarch": uarch,
                             "text": text, "entry": entry})
        path = self.path_for(uarch, text)
        name = os.path.basename(path)
        tmp = f"{path}.{os.getpid()}.tmp"

        def attempt_write(attempt: int) -> None:
            if attempt == 0 and chaos.fire("write_oserror", name):
                raise OSError(errno.EIO,
                              "chaos: transient write error")
            if chaos.fire("disk_full", name, count=attempt == 0):
                raise OSError(errno.ENOSPC, "chaos: disk full")
            try:
                with open(tmp, "w") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

        try:
            self.retry.run(attempt_write, key=name)
        except OSError as exc:
            telemetry.count("resilience.cache_write_failures")
            telemetry.event("resilience.cache_write_failure",
                            record=name, error=type(exc).__name__)
            resilience.quarantine_or_raise(
                f"store write failed for record {name}", str(exc))
            return False
        self._maybe_corrupt_after_write(name, path)
        return True

    @staticmethod
    def _maybe_corrupt_after_write(name: str, path: str) -> None:
        """Chaos points simulating a write that *looked* durable but
        left a truncated or garbage record for the next reader."""
        if chaos.fire("cache_truncate", name):
            size = os.path.getsize(path)
            with open(path, "r+") as fh:
                fh.truncate(max(1, size // 2))
        elif chaos.fire("cache_garbage", name):
            with open(path, "w") as fh:
                fh.write("\x00garbage\x7f not json {{{")
