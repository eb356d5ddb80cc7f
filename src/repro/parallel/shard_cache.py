"""Measurement cache v3: one file per shard, keyed by content digest.

Layout (under ``.cache/``)::

    measured_v3_<tag>_<uarch>_<seed>/
        shard_<digest>.json     # {"version": 3, "digest", "count",
                                #  "throughputs": {offset: cycles},
                                #  "funnel": {...}}

Throughputs are stored by *offset within the shard* rather than by
``block_id``: a shard whose content is unchanged stays valid even when
corpus growth shifted absolute ids, which is what makes re-runs with a
grown corpus incremental — only new or changed shards are profiled.

Every write is atomic (temp file + ``os.replace``), so a run killed
mid-write leaves at worst an orphaned ``*.tmp`` the loader ignores;
it can never leave a half-written ``shard_*.json`` visible.  Orphaned
temps from crashed runs are swept when the cache is opened (a live
writer's temp — its pid is embedded in the name — is left alone).
Loads are defensive: wrong version, digest mismatch, truncated JSON,
or a funnel that does not account for every block all read as a miss,
never as an exception — and the offending file is moved to
``quarantine/`` (rather than left to fail again every run) unless
strict mode promotes the corruption into a
:class:`repro.errors.StrictModeViolation`.

Writes run under the resilience retry policy: a transient ``OSError``
(including the injected ``write_oserror`` chaos point) is retried with
deterministic jittered backoff; persistent failure (e.g. disk full)
degrades to "shard not cached" instead of failing the run.
``store`` returns the CRC-32 of the bytes it wrote so the run journal
(:mod:`repro.resilience.journal`) can verify cache hits on resume.

``import_v2`` is the merge-on-load path for the previous monolithic
cache format: a v2 (or v1) file for the same corpus is split into
per-shard entries once, after which the shards behave like natively
written v3 entries.  Per-reason drop attribution survives the split
only when it is unambiguous (a single drop reason); otherwise drops
are lumped under ``unknown_pre_v3_cache``, mirroring how v1 files were
already handled.
"""

from __future__ import annotations

import errno
import json
import os
import zlib
from typing import Dict, Iterable, Optional

from repro.parallel.sharding import Shard
from repro.profiler.result import CorpusProfile
from repro.resilience import chaos
from repro.resilience import policy as resilience
from repro.telemetry import cachestats
from repro.telemetry import core as telemetry

CACHE_VERSION = 3

#: Funnel bucket for drops whose original reason a legacy cache no
#: longer records.
LEGACY_DROP_REASON = "unknown_pre_v3_cache"

#: Subdirectory corrupt shard files are moved to instead of raising.
QUARANTINE_DIR = "quarantine"

# Default provider so the unified ``caches`` section always carries a
# ``shard`` row (pure counter read); opening a ShardCache replaces it
# with an instance-bound provider that also reports on-disk size.
cachestats.register_provider(
    "shard", lambda: cachestats.registry_stats("shard"))


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
    """Per-shard measurement cache with atomic writes."""

    def __init__(self, directory: str,
                 retry: Optional[resilience.RetryPolicy] = None):
        self.directory = directory
        self.retry = retry or resilience.default_retry_policy()
        os.makedirs(directory, exist_ok=True)
        self._sweep_stale_temps()
        # The unified ``caches`` section tracks the most recently
        # opened shard cache (runs open exactly one); hit/miss counts
        # come from the engine's ``cache.shard.*`` counters.
        cachestats.register_provider("shard", self._cache_stats)

    def _cache_stats(self) -> cachestats.CacheStats:
        stats = cachestats.registry_stats("shard")
        try:
            stats.size = len(self.shard_files())
        except OSError:
            pass
        return stats

    # ------------------------------------------------------------------

    def path_for(self, shard: Shard) -> str:
        return os.path.join(self.directory,
                            f"shard_{shard.digest}.json")

    def __contains__(self, shard: Shard) -> bool:
        return os.path.exists(self.path_for(shard))

    def shard_files(self) -> list:
        return sorted(name for name in os.listdir(self.directory)
                      if name.startswith("shard_")
                      and name.endswith(".json"))

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIR)

    def quarantined_files(self) -> list:
        try:
            return sorted(os.listdir(self.quarantine_dir))
        except OSError:
            return []

    # ------------------------------------------------------------------

    def _sweep_stale_temps(self) -> None:
        """Remove ``*.tmp`` orphans left by prior crashed runs.

        Temp names embed the writing pid (``<file>.<pid>.tmp``); a
        temp whose writer is dead — or whose name does not parse — is
        an orphan from a crash and is deleted.  A live writer's temp
        (another process racing this one) is left for it to finish.
        """
        swept = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(".tmp"):
                continue
            pieces = name.split(".")
            # shard_<digest>.json.<pid>.tmp -> pid is pieces[-2]
            try:
                pid = int(pieces[-2])
            except (IndexError, ValueError):
                pid = None
            if pid is not None and pid != os.getpid() \
                    and _pid_alive(pid):
                continue
            if pid == os.getpid():
                # Our own pid: any temp is a leftover from a previous
                # incarnation of this pid (we have not written yet).
                pass
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
        """Move a corrupt file to ``quarantine/`` (or raise in strict)."""
        resilience.quarantine_or_raise(
            f"corrupt shard-cache file {os.path.basename(path)}",
            reason)
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

    def checksum(self, shard: Shard) -> Optional[int]:
        """CRC-32 of the shard file's current bytes (``None`` if absent)."""
        try:
            with open(self.path_for(shard), "rb") as fh:
                return zlib.crc32(fh.read())
        except OSError:
            return None

    def load(self, shard: Shard) -> Optional[CorpusProfile]:
        """The shard's cached profile, or ``None`` on any defect.

        A file that exists but fails validation — truncated JSON,
        garbage, wrong schema, digest mismatch, a funnel that does not
        account for every block — is quarantined so it cannot fail
        again on every future run.
        """
        path = self.path_for(shard)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError:
            return None  # plain miss
        except ValueError:
            self._quarantine(path, "undecodable JSON")
            return None
        if not isinstance(doc, dict) \
                or doc.get("version") != CACHE_VERSION \
                or doc.get("digest") != shard.digest \
                or doc.get("count") != len(shard):
            self._quarantine(path, "wrong schema or digest")
            return None
        funnel = doc.get("funnel") or {}
        dropped = funnel.get("dropped") or {}
        if funnel.get("total") != len(shard) or \
                funnel.get("accepted", -1) + sum(dropped.values()) \
                != len(shard):
            # corrupt: funnel does not cover the shard
            self._quarantine(path, "funnel does not reconcile")
            return None
        offsets = doc.get("throughputs") or {}
        throughputs: Dict[int, float] = {}
        try:
            for offset, value in offsets.items():
                throughputs[shard.records[int(offset)].block_id] = value
        except (IndexError, ValueError):
            self._quarantine(path, "throughput offsets out of range")
            return None
        return CorpusProfile(throughputs=throughputs,
                             funnel={"total": funnel["total"],
                                     "accepted": funnel["accepted"],
                                     "dropped": dict(dropped)},
                             info=dict(doc.get("info") or {}))

    def store(self, shard: Shard,
              profile: CorpusProfile) -> Optional[int]:
        """Atomically persist one shard's profile.

        Returns the CRC-32 of the bytes written (for the run journal),
        or ``None`` when the write ultimately failed and the run
        degraded to "not cached" (salvage mode; strict mode raises).
        """
        by_offset = {
            offset: profile.throughputs[record.block_id]
            for offset, record in enumerate(shard.records)
            if record.block_id in profile.throughputs
        }
        payload = {"version": CACHE_VERSION,
                   "digest": shard.digest,
                   "count": len(shard),
                   "throughputs": by_offset,
                   "funnel": profile.funnel,
                   "info": profile.info}
        data = json.dumps(payload)
        path = self.path_for(shard)
        tmp = f"{path}.{os.getpid()}.tmp"

        def attempt_write(attempt: int) -> None:
            if attempt == 0 and chaos.fire("write_oserror",
                                           shard.digest):
                raise OSError(errno.EIO,
                              "chaos: transient write error")
            if chaos.fire("disk_full", shard.digest,
                          count=attempt == 0):
                raise OSError(errno.ENOSPC, "chaos: disk full")
            try:
                with open(tmp, "w") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

        try:
            self.retry.run(attempt_write, key=shard.digest)
        except OSError as exc:
            telemetry.count("resilience.cache_write_failures")
            telemetry.event("resilience.cache_write_failure",
                            digest=shard.digest,
                            error=type(exc).__name__)
            resilience.quarantine_or_raise(
                f"cache write failed for shard {shard.digest}",
                str(exc))
            return None
        self._maybe_corrupt_after_write(shard, path)
        return zlib.crc32(data.encode())

    @staticmethod
    def _maybe_corrupt_after_write(shard: Shard, path: str) -> None:
        """Chaos points simulating a write that *looked* durable but
        left a truncated or garbage file for the next reader."""
        if chaos.fire("cache_truncate", shard.digest):
            size = os.path.getsize(path)
            with open(path, "r+") as fh:
                fh.truncate(max(1, size // 2))
        elif chaos.fire("cache_garbage", shard.digest):
            with open(path, "w") as fh:
                fh.write("\x00garbage\x7f not json {{{")

    # ------------------------------------------------------------------

    def import_v2(self, shards: Iterable[Shard],
                  profile: CorpusProfile) -> int:
        """Split a legacy whole-corpus profile into v3 shard entries.

        A legacy file records *which* blocks were dropped (absent from
        ``throughputs``) but only corpus-wide *reason* counts, so the
        reasons are redistributed greedily over the shards' drop slots
        in order.  Per-shard attribution is therefore approximate, but
        the merged funnel — the Table-I view — reproduces the legacy
        breakdown exactly.  Shards already cached natively are left
        alone (their slots consume from the pool blindly, falling back
        to ``unknown_pre_v3_cache`` if the pool runs dry).  Returns
        the number of shards imported.
        """
        pool = [[reason, count] for reason, count
                in (profile.funnel.get("dropped") or {}).items()]
        imported = 0
        for shard in sorted(shards, key=lambda s: s.index):
            throughputs = {
                record.block_id: profile.throughputs[record.block_id]
                for record in shard.records
                if record.block_id in profile.throughputs
            }
            accepted = len(throughputs)
            missing = len(shard) - accepted
            dropped: Dict[str, int] = {}
            while missing and pool:
                reason, count = pool[0]
                take = min(missing, count)
                dropped[reason] = dropped.get(reason, 0) + take
                missing -= take
                if count == take:
                    pool.pop(0)
                else:
                    pool[0][1] = count - take
            if missing:  # legacy funnel under-counted its drops
                dropped[LEGACY_DROP_REASON] = missing
            if shard in self:
                continue  # consumed its slots; keep the native entry
            self.store(shard, CorpusProfile(
                throughputs=throughputs,
                funnel={"total": len(shard), "accepted": accepted,
                        "dropped": dropped}))
            imported += 1
        return imported
