"""Deterministic corpus sharding and order-independent merging.

The parallel engine's safety argument rests on three properties this
module provides and the test suite proves:

* **Partition.**  ``shard_corpus`` splits a corpus into contiguous
  chunks in corpus order — every record lands in exactly one shard, no
  record is duplicated, and concatenating the shards reproduces the
  corpus byte for byte.
* **Stable identity.**  Each shard's ``digest`` is a chained CRC-32
  over its blocks' *texts* (length-prefixed, so concatenation is
  unambiguous).  CRC-32 is process-stable — unlike builtin ``hash()``
  it does not depend on ``PYTHONHASHSEED`` — so workers, the parent,
  and a profiler run next week all agree on which cached shard is
  which.  The digest deliberately excludes ``block_id`` so a shard
  whose *content* is unchanged stays cache-valid even if ids shifted.
* **Canonical merge.**  ``merge_profiles`` reassembles per-shard
  profiles in shard-index order regardless of completion order, so the
  merged profile — throughput insertion order, funnel bucket order,
  every count — is byte-identical to a serial walk of the corpus.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.corpus.dataset import BlockRecord, Corpus
from repro.profiler.result import CorpusProfile

#: Default number of blocks per shard (``REPRO_SHARD_SIZE`` overrides
#: at the pipeline level).  Small enough that a pool keeps every worker
#: busy at bench scales, large enough that per-shard overhead (pickle,
#: cache file, merge) stays negligible.
DEFAULT_SHARD_SIZE = 32


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a corpus, with a stable content digest."""

    index: int
    records: Tuple[BlockRecord, ...]
    digest: str

    def __len__(self) -> int:
        return len(self.records)

    @property
    def block_ids(self) -> List[int]:
        return [r.block_id for r in self.records]


def shard_digest(records: Sequence[BlockRecord]) -> str:
    """Process-stable content digest of an ordered run of records.

    A chained CRC-32 over length-prefixed block texts.  Never uses
    builtin ``hash()`` (randomised per process by ``PYTHONHASHSEED``),
    so parent and workers always compute the same key.
    """
    crc = 0
    for record in records:
        data = record.block.text().encode()
        crc = zlib.crc32(f"{len(data)}:".encode(), crc)
        crc = zlib.crc32(data, crc)
    return f"{crc:08x}-{len(records)}"


def shard_corpus(corpus: Iterable[BlockRecord],
                 shard_size: int = DEFAULT_SHARD_SIZE) -> List[Shard]:
    """Split a corpus into deterministic contiguous shards.

    The split is a pure function of corpus order and ``shard_size``:
    no randomness, no hashing of ids, so every process derives the
    same shards from the same corpus.
    """
    return list(stream_shards(corpus, shard_size))


def stream_shards(records: Iterable[BlockRecord],
                  shard_size: int = DEFAULT_SHARD_SIZE
                  ) -> Iterator[Shard]:
    """Lazily cut a record stream into the shards ``shard_corpus``
    would produce — same indices, contents and content digests — while
    holding at most one shard's records at a time.

    The generator half of the streamed pipeline: ``shard_corpus`` is a
    ``list(...)`` of this, so batch and streamed sharding cannot
    diverge by construction (and ``tests/corpus/test_streaming.py``
    re-proves it with hypothesis anyway).
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    chunk: List[BlockRecord] = []
    index = 0
    for record in records:
        chunk.append(record)
        if len(chunk) == shard_size:
            frozen = tuple(chunk)
            yield Shard(index=index, records=frozen,
                        digest=shard_digest(frozen))
            chunk = []
            index += 1
    if chunk:
        frozen = tuple(chunk)
        yield Shard(index=index, records=frozen,
                    digest=shard_digest(frozen))


def merge_funnels(funnels: Sequence[Dict]) -> Dict:
    """Sum per-shard funnels; bucket order is first-encounter order."""
    merged = CorpusProfile.empty_funnel()
    for funnel in funnels:
        merged["total"] += funnel.get("total", 0)
        merged["accepted"] += funnel.get("accepted", 0)
        for reason, count in (funnel.get("dropped") or {}).items():
            merged["dropped"][reason] = \
                merged["dropped"].get(reason, 0) + count
    return merged


class ProfileFolder:
    """Incremental shard-profile merge, one shard at a time.

    The streamed engine's fold stage: shards are :meth:`add`-ed in
    shard-index order as they complete and their per-shard state is
    discarded immediately — only the folded throughputs/funnel/info
    accumulate.  Folding in index order reproduces exactly what
    ``merge_profiles`` computes from the full pair list (throughput
    insertion order, funnel bucket first-encounter order, every
    count), which is why ``merge_profiles`` is itself implemented as a
    fold — batch and streamed merges cannot diverge by construction.
    """

    def __init__(self):
        self._throughputs: Dict[int, float] = {}
        self._funnel = CorpusProfile.empty_funnel()
        self._info: Dict[str, int] = {}
        self.folded = 0

    def add(self, shard: Shard, profile: CorpusProfile) -> None:
        """Fold one shard's profile in (callers supply index order)."""
        for record in shard.records:
            value = profile.throughputs.get(record.block_id)
            if value is not None:
                if record.block_id in self._throughputs:
                    raise ValueError(
                        f"duplicate block id {record.block_id} "
                        f"across shards")
                self._throughputs[record.block_id] = value
        funnel = profile.funnel
        self._funnel["total"] += funnel.get("total", 0)
        self._funnel["accepted"] += funnel.get("accepted", 0)
        for reason, count in (funnel.get("dropped") or {}).items():
            self._funnel["dropped"][reason] = \
                self._funnel["dropped"].get(reason, 0) + count
        for key, value in (profile.info or {}).items():
            self._info[key] = self._info.get(key, 0) + value
        self.folded += 1

    def result(self) -> CorpusProfile:
        return CorpusProfile(throughputs=self._throughputs,
                             funnel=self._funnel, info=self._info)


def merge_profiles(shard_profiles: Iterable[Tuple[Shard, CorpusProfile]]
                   ) -> CorpusProfile:
    """Merge per-shard profiles into one corpus profile.

    Input order does not matter: shards are reassembled by index, so
    the result is identical whether shards finished in submission
    order, reverse order, or any interleaving — the property the
    hypothesis suite in ``tests/parallel`` exercises.
    """
    folder = ProfileFolder()
    for shard, profile in sorted(shard_profiles,
                                 key=lambda sp: sp[0].index):
        folder.add(shard, profile)
    return folder.result()


def partition_check(corpus: Corpus, shards: Sequence[Shard]) -> None:
    """Raise unless ``shards`` is exactly a partition of ``corpus``."""
    flat = [r for shard in sorted(shards, key=lambda s: s.index)
            for r in shard.records]
    if len(flat) != len(corpus):
        raise ValueError(f"sharding lost records: "
                         f"{len(flat)} != {len(corpus)}")
    for ours, theirs in zip(flat, corpus):
        if ours is not theirs and ours != theirs:
            raise ValueError("sharding reordered records")
