"""Constant-memory corpus generation: lazy record streams.

The batch builders in :mod:`repro.corpus.dataset` materialise every
block before anything downstream runs, so memory — not CPU — caps the
corpus size.  This module provides the lazy counterparts:

* :func:`iter_application` / :func:`iter_corpus` yield
  :class:`~repro.corpus.dataset.BlockRecord` objects one at a time,
  producing the **same records in the same order** as
  ``build_application`` / ``build_corpus`` — by construction, because
  the batch builders are thin ``list(...)`` wrappers around these
  iterators.
* :func:`repro.parallel.sharding.stream_shards` cuts any record
  iterator into the same deterministic shards ``shard_corpus``
  produces from the materialised list
  (``tests/corpus/test_streaming.py`` holds both equalities with
  hypothesis).

The profiling engine (:func:`repro.parallel.profile_corpus_streamed`)
composes them as ``generate → digest → shard → profile → fold →
discard``: the only per-block state that survives a shard's fold is
its measured throughput.  The one allocation that cannot be made lazy
is each application's frequency table — ``assign_frequencies``
rank-shuffles and smooths over the whole app — so a ``repro corpus
--stream`` run peaks at O(one app's frequency ints + in-flight
shards), not O(corpus).
"""

from __future__ import annotations

import zlib
from typing import Iterator, Optional, Sequence

from repro.corpus.dataset import (DEFAULT_APPS, BlockRecord, get_spec,
                                  _target_count)
from repro.corpus.synthesis import BlockSynthesizer
from repro.corpus.tracing import assign_frequencies

__all__ = ["iter_application", "iter_corpus", "corpus_spec_digest"]


def iter_application(name: str, scale: float = 0.01, seed: int = 0,
                     count: Optional[int] = None,
                     id_base: int = 0) -> Iterator[BlockRecord]:
    """Yield one application's records lazily, in builder order.

    Blocks come off the synthesizer one at a time; the only per-app
    allocation is the frequency table (``assign_frequencies`` needs
    the app's block count up front to rank-shuffle and smooth), which
    is discarded when the app is exhausted.  ``id_base`` offsets the
    ``block_id`` sequence so :func:`iter_corpus` can assign global ids
    without materialising anything.
    """
    spec = get_spec(name)
    n = count if count is not None else _target_count(spec, scale)
    synthesizer = BlockSynthesizer(spec, seed=seed)
    frequencies = assign_frequencies(n, spec.zipf_exponent, seed=seed)
    bias = spec.hot_kernel_bias
    if bias:
        from repro.models.residual import block_mix
    for i in range(n):
        block = synthesizer.block()
        frequency = frequencies[i]
        if bias:
            frequency = max(1, int(
                frequency
                * (1.0 + bias * block_mix(block)["vector"]) ** 2))
        yield BlockRecord(block=block, application=name,
                          frequency=frequency, block_id=id_base + i)


def iter_corpus(scale: float = 0.01, seed: int = 0,
                applications: Sequence[str] = DEFAULT_APPS
                ) -> Iterator[BlockRecord]:
    """Yield the full suite lazily with global sequential block ids —
    the exact records ``build_corpus`` materialises."""
    next_id = 0
    for name in applications:
        for record in iter_application(name, scale=scale, seed=seed,
                                       id_base=next_id):
            yield record
            next_id = record.block_id + 1


def corpus_spec_digest(scale: float, seed: int,
                       applications: Sequence[str] = DEFAULT_APPS,
                       shard_size: int = 32) -> str:
    """Stable identity of a generated stream for journal pinning.

    A run over a materialised corpus journals a CRC over every shard
    digest; a stream of unknown length cannot, so it pins the
    *generator spec* instead — same scale, seed, app list and shard
    size means the same shards.
    """
    spec = f"{scale!r}|{seed}|{','.join(applications)}|{shard_size}"
    return f"{zlib.crc32(spec.encode()):08x}"
