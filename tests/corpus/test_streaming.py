"""Streamed corpus generation equals batch construction, by bytes.

The streamed pipeline's first link: ``iter_application`` /
``iter_corpus`` must yield exactly the records ``build_application`` /
``build_corpus`` materialise (they are the same code — the builders
are ``list(...)`` wrappers — but these tests pin that equivalence
against refactors), and ``stream_shards`` over any record stream must
cut exactly the shards ``shard_corpus`` would (hypothesis-proven for
arbitrary generator orders and shard sizes).
"""

import random

import pytest

from repro.corpus.dataset import (DEFAULT_APPS, BlockRecord,
                                  build_application, build_corpus)
from repro.corpus.streaming import (corpus_spec_digest,
                                    iter_application, iter_corpus)
from repro.isa.parser import parse_block
from repro.parallel import shard_corpus, stream_shards

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_HYPOTHESIS = False


def _record_key(record):
    return (record.block_id, record.application, record.frequency,
            record.block.text())


class TestIterEqualsBuild:
    def test_iter_application_equals_build(self):
        lazy = list(iter_application("gzip", count=17, seed=3))
        built = build_application("gzip", count=17, seed=3).records
        assert [_record_key(r) for r in lazy] \
            == [_record_key(r) for r in built]

    def test_iter_corpus_equals_build(self):
        lazy = list(iter_corpus(scale=0.001, seed=2))
        built = build_corpus(scale=0.001, seed=2).records
        assert [_record_key(r) for r in lazy] \
            == [_record_key(r) for r in built]
        # Global block ids are consecutive across applications.
        assert [r.block_id for r in lazy] == list(range(len(lazy)))

    def test_iter_corpus_is_lazy(self):
        iterator = iter_corpus(scale=0.001, seed=0)
        first = next(iterator)
        assert first.block_id == 0
        assert first.application == DEFAULT_APPS[0]

    def test_application_subset(self):
        lazy = list(iter_corpus(scale=0.001, seed=0,
                                applications=("gzip", "redis")))
        built = build_corpus(scale=0.001, seed=0,
                             applications=("gzip", "redis")).records
        assert [_record_key(r) for r in lazy] \
            == [_record_key(r) for r in built]


class TestSpecDigest:
    def test_stable_and_parameter_sensitive(self):
        base = corpus_spec_digest(0.001, 0)
        assert base == corpus_spec_digest(0.001, 0)
        assert base != corpus_spec_digest(0.002, 0)
        assert base != corpus_spec_digest(0.001, 1)
        assert base != corpus_spec_digest(0.001, 0, shard_size=16)
        assert base != corpus_spec_digest(
            0.001, 0, applications=("gzip",))


# ---------------------------------------------------------------------------
# stream_shards == shard_corpus, for any record stream and shard size
# ---------------------------------------------------------------------------

_BLOCK_POOL = [parse_block(text) for text in (
    "add %rax, %rbx",
    "xor %edx, %edx\ndiv %ecx",
    "mov 0x8(%rsp), %rcx\nadd %rcx, %rax",
    "mulps %xmm1, %xmm2\naddps %xmm2, %xmm3",
    "lea 0x4(%rdi,%rsi,2), %rax",
)]


def _make_records(choices):
    return [BlockRecord(block=_BLOCK_POOL[c % len(_BLOCK_POOL)],
                        application="test", frequency=1, block_id=i)
            for i, c in enumerate(choices)]


def _shards_equal(streamed, batch):
    assert len(streamed) == len(batch)
    for ours, theirs in zip(streamed, batch):
        assert ours.index == theirs.index
        assert ours.digest == theirs.digest
        assert [r.block_id for r in ours.records] \
            == [r.block_id for r in theirs.records]


def check_stream_equals_batch(choices, shard_size):
    records = _make_records(choices)
    streamed = list(stream_shards(iter(records), shard_size))
    _shards_equal(streamed, shard_corpus(records, shard_size))


if HAVE_HYPOTHESIS:
    @settings(max_examples=60, deadline=None)
    @given(choices=st.lists(st.integers(min_value=0, max_value=4),
                            max_size=40),
           shard_size=st.integers(min_value=1, max_value=9))
    def test_stream_shards_equals_shard_corpus(choices, shard_size):
        check_stream_equals_batch(choices, shard_size)
else:  # pragma: no cover - hypothesis available in CI
    @pytest.mark.parametrize("case_seed", range(30))
    def test_stream_shards_equals_shard_corpus(case_seed):
        rng = random.Random(case_seed)
        choices = [rng.randrange(5)
                   for _ in range(rng.randrange(40))]
        check_stream_equals_batch(choices, rng.randrange(1, 10))


def test_stream_shards_rejects_bad_size():
    with pytest.raises(ValueError):
        list(stream_shards(iter(()), 0))


def test_stream_shards_holds_one_chunk(monkeypatch):
    """The generator yields as soon as a shard fills — it never
    accumulates the stream (checked by interleaving consumption with
    generation)."""
    produced = []

    def generator():
        for record in _make_records([0, 1, 2, 3, 4, 0, 1]):
            produced.append(record.block_id)
            yield record

    it = stream_shards(generator(), 3)
    first = next(it)
    assert first.index == 0
    assert produced == [0, 1, 2]  # nothing beyond the first shard
    second = next(it)
    assert second.index == 1
    assert produced == [0, 1, 2, 3, 4, 5]
    third = next(it)
    assert len(third) == 1  # trailing partial shard
    assert list(it) == []
