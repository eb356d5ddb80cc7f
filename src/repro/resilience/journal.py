"""Self-checked NDJSON lines: a record plus a CRC-32 of itself.

Every crash-safe file in the tree is an append-only log of these
lines: the result store's per-uarch logs
(:mod:`repro.parallel.shard_cache`) and the serve request journal
(:mod:`repro.serve.requestlog`).  A line carries a ``crc`` of its own
serialized payload, so a torn line (SIGKILL during ``write``), a
flipped byte or a line of garbage fails its self-check and reads as
``None`` instead of crashing the reader or passing off wrong data.

A writer killed mid-``write`` leaves an unterminated last line.  The
next writer cuts it off (:func:`truncate_torn_tail`) before it
appends, so the torn bytes never glue onto the next record.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Optional, Union

from repro.telemetry import core as telemetry


def journal_line(record: Dict) -> str:
    """Serialize a record with its own integrity checksum appended."""
    payload = json.dumps(record, sort_keys=True)
    crc = zlib.crc32(payload.encode())
    return json.dumps({"crc": crc, "rec": record}, sort_keys=True)


def parse_journal_line(line: Union[str, bytes]) -> Optional[Dict]:
    """A record that passes its self-check, else ``None`` (bytes that
    are not even text included)."""
    try:
        doc = json.loads(line)
        record = doc["rec"]
        payload = json.dumps(record, sort_keys=True)
        if zlib.crc32(payload.encode()) != doc["crc"]:
            return None
        return record if isinstance(record, dict) else None
    except (ValueError, KeyError, TypeError):
        return None


def truncate_torn_tail(fd: int) -> int:
    """Cut an unterminated last line off the log open on ``fd``.

    ``fd`` must be open for reading and writing, and the caller must
    be the log's only writer for the duration (by holding its lock).
    Returns the length of the log's complete lines: the offset the
    next append lands at.
    """
    size = os.fstat(fd).st_size
    if not size or os.pread(fd, 1, size - 1) == b"\n":
        return size
    end = size - 1
    while end > 0:
        start = max(0, end - 4096)
        newline = os.pread(fd, end - start, start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    os.ftruncate(fd, end)
    telemetry.count("resilience.torn_tails_truncated")
    telemetry.event("resilience.torn_tail_truncated", bytes=size - end)
    return end
