"""Self-checked NDJSON lines: a record plus a CRC-32 of itself.

Every crash-safe file in the tree is made of these lines: each record
of the result store (:mod:`repro.parallel.shard_cache`) and each
record of the serve request journal (:mod:`repro.serve.requestlog`).
A line carries a ``crc`` of its own serialized payload, so a torn
line (SIGKILL during ``write``), a flipped byte or a file of garbage
fails its self-check and reads as ``None`` instead of crashing the
reader or passing off wrong data.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, Optional, Union


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
