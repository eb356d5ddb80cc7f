"""On-disk triage state: the block journal and the weights artifact.

One store directory per *execution configuration* —
``triage_<uarch>_<seed>_<fingerprint>/`` next to the v3 shard cache —
where the fingerprint covers the profiler configuration **and** the
fastpath/blockplan switchboard state.  A measurement journaled
under one configuration can therefore never be replayed into a run
with a different one, even though the measured bytes themselves are
switch-invariant: the informational ``extra`` flags stored with each
row are *not*, and restoring a stale flag would misreport coverage.

Layout::

    triage_<uarch>_<seed>_<fp>/
        blocks.ndjson        append-only block journal
        weights_<crc>.json   content-addressed fitted surrogates
        HEAD                 name of the current weights artifact

``blocks.ndjson`` reuses the CRC-self-checked line format of the run
journal (:mod:`repro.resilience.journal`): every line carries a
checksum of its own payload, so a line torn by a crash — or
interleaved by two pool workers appending concurrently — fails its
self-check and is dropped on load; its block simply re-simulates on
the next run.  Appends go through a single ``write`` on an
append-mode handle, so concurrent workers extend rather than clobber.

Weights artifacts are content-addressed (CRC-32 of the canonical
payload in the filename and inside the file) and published atomically
(tmp + ``os.replace`` for both the artifact and ``HEAD``), so a
reader never observes a half-written model.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, List, Optional

from repro.resilience.journal import journal_line, parse_journal_line
from repro.triage.surrogate import Surrogate

BLOCKS_NAME = "blocks.ndjson"
HEAD_NAME = "HEAD"


def block_digest(text: str) -> str:
    """Content digest of one block text (``PYTHONHASHSEED``-proof)."""
    return f"{zlib.crc32(text.encode()):08x}"


def config_fingerprint(config, *, fastpath: bool, blockplan: bool) -> str:
    """Digest of everything that shapes a profile's full result.

    ``repr`` of the (frozen, dataclass) profiler configuration plus
    the live switchboard state.  The throughput/measurement bytes only
    depend on the former — the paper-pipeline differential suites
    prove the switches invisible — but the informational ``extra``
    flags journaled with each row depend on both, so both pin the
    store directory.
    """
    text = f"{config!r}|fp={fastpath}|bp={blockplan}"
    return f"{zlib.crc32(text.encode()):08x}"


def cache_root() -> str:
    """``$REPRO_CACHE`` or the repo-local ``.cache`` directory.

    Same resolution as the v3 shard cache
    (``repro.eval.pipeline._cache_dir``), so triage state lives next
    to the measurement shards it revalidates.
    """
    root = os.environ.get("REPRO_CACHE",
                          os.path.join(os.path.dirname(__file__),
                                       "..", "..", "..", ".cache"))
    return os.path.abspath(root)


def store_dir(uarch: str, seed: int, fingerprint: str) -> str:
    return os.path.join(cache_root(),
                        f"triage_{uarch}_{seed}_{fingerprint}")


class TriageStore:
    """One configuration's block journal + weights artifact."""

    def __init__(self, directory: str):
        self.directory = directory
        #: digest -> journaled row (last intact occurrence wins).
        self.rows: Dict[str, dict] = {}
        #: Journal lines dropped for failing their self-check.
        self.torn_rows = 0
        self._surrogate: Optional[Surrogate] = None
        self._surrogate_loaded = False
        self.reload()

    # -- block journal -------------------------------------------------

    @property
    def blocks_path(self) -> str:
        return os.path.join(self.directory, BLOCKS_NAME)

    def reload(self) -> None:
        """(Re-)read the journal from disk, tolerating torn lines."""
        self.rows = {}
        self.torn_rows = 0
        try:
            with open(self.blocks_path) as fh:
                lines = fh.read().splitlines()
        except OSError:
            return
        for line in lines:
            if not line.strip():
                continue
            record = parse_journal_line(line)
            if record is None or "digest" not in record:
                self.torn_rows += 1
                continue
            self.rows[record["digest"]] = record

    def append(self, records: List[dict]) -> int:
        """Durably append rows; returns how many were written.

        One buffered ``write`` on an ``O_APPEND`` handle per call, so
        concurrent pool workers interleave at worst per-call, and a
        torn interleaving is caught by the per-line CRC on load.
        Write failures degrade silently — the rows are simply
        journaled again by a later run.
        """
        if not records:
            return 0
        try:
            os.makedirs(self.directory, exist_ok=True)
            payload = "".join(journal_line(r) + "\n" for r in records)
            with open(self.blocks_path, "a") as fh:
                fh.write(payload)
                fh.flush()
        except OSError:
            return 0
        for record in records:
            self.rows[record["digest"]] = record
        return len(records)

    # -- weights artifact ----------------------------------------------

    def surrogate(self) -> Optional[Surrogate]:
        """The published surrogate, loaded lazily (``None`` if absent)."""
        if not self._surrogate_loaded:
            self._surrogate = self._load_weights()
            self._surrogate_loaded = True
        return self._surrogate

    def _load_weights(self) -> Optional[Surrogate]:
        try:
            with open(os.path.join(self.directory, HEAD_NAME)) as fh:
                name = fh.read().strip()
            if not name or os.sep in name or name.startswith("."):
                return None
            with open(os.path.join(self.directory, name)) as fh:
                wrapper = json.load(fh)
            payload = json.dumps(wrapper["doc"], sort_keys=True)
            if zlib.crc32(payload.encode()) != wrapper["crc"]:
                return None
            return Surrogate.from_doc(wrapper["doc"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def publish(self, model: Surrogate) -> Optional[str]:
        """Atomically publish a fitted surrogate; returns its filename.

        Content-addressed: the artifact name carries the CRC of its
        canonical payload, and ``HEAD`` flips to it with an atomic
        replace.  Publishing the model ``HEAD`` already points at is a
        no-op.  Failures degrade to ``None`` (the run keeps its
        current weights).
        """
        try:
            payload = json.dumps(model.to_doc(), sort_keys=True)
            crc = zlib.crc32(payload.encode())
            name = f"weights_{crc:08x}.json"
            os.makedirs(self.directory, exist_ok=True)
            path = os.path.join(self.directory, name)
            if not os.path.exists(path):
                tmp = f"{path}.{os.getpid()}.tmp"
                with open(tmp, "w") as fh:
                    fh.write(json.dumps({"crc": crc,
                                         "doc": model.to_doc()},
                                        sort_keys=True))
                os.replace(tmp, path)
            head = os.path.join(self.directory, HEAD_NAME)
            tmp = f"{head}.{os.getpid()}.tmp"
            with open(tmp, "w") as fh:
                fh.write(name + "\n")
            os.replace(tmp, head)
        except OSError:
            return None
        self._surrogate = model
        self._surrogate_loaded = True
        return name
