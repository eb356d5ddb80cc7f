"""The engine profiles a list and a generator to the same bytes.

``profile_corpus_sharded`` (a materialised list) and
``profile_corpus_streamed`` (a *generator* of records that it can
never look ahead in, count, or re-read) run the same engine loop, and
both must serialise to exactly the bytes of the plain serial
``profile_corpus_detailed`` walk.  This suite proves that
differentially (serial and pooled, all three microarchitectures,
every prefetch depth and an epoch reset every few blocks), and checks
the loop's contracts: index-ordered folding, honest stats,
journal-identity discipline, and cache interoperability between list
and generator runs.
"""

import json
import os

import pytest

from repro.corpus.dataset import build_application
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import (ShardCache, engine, profile_corpus_sharded,
                            profile_corpus_streamed, shard_corpus)
from repro.resilience import JOURNAL_NAME, RunJournal, chaos

UARCHES = ("ivybridge", "haswell", "skylake")


def _payload(profile) -> str:
    return json.dumps({"throughputs": profile.throughputs,
                       "funnel": profile.funnel})


def _records(app="openblas", count=26, seed=5):
    return build_application(app, count=count, seed=seed).records


def _assert_conserved(stats, shards):
    """Every shard is a cache hit, profiled or failed, and only a
    cache hit can be resumed.

    Holds under any chaos policy: injected cache truncation, garbage
    and write faults turn hits into re-profiles, never lose a shard.
    """
    assert stats["shards"] == shards
    assert stats["cache_hits"] + stats["profiled"] + stats["failed"] \
        == shards
    assert stats["resumed"] <= stats["cache_hits"]


@pytest.mark.parametrize("uarch", UARCHES)
@pytest.mark.parametrize("jobs", (1, 2))
def test_generator_equals_list(uarch, jobs):
    records = _records()
    serial = profile_corpus_detailed(records, uarch, seed=5)
    listed = profile_corpus_sharded(records, uarch, seed=5, jobs=jobs,
                                    shard_size=4)
    streamed = profile_corpus_streamed(iter(records), uarch, seed=5,
                                       jobs=jobs, shard_size=4)
    assert _payload(listed) == _payload(serial)
    assert _payload(streamed) == _payload(serial)


def test_accepts_shard_stream():
    """Pre-cut shards stream through unchanged (the list entry hands
    over shards, not records)."""
    records = _records(count=18)
    shards = shard_corpus(records, 4)
    streamed = profile_corpus_streamed(iter(shards), "skylake", seed=5,
                                       shard_size=4)
    assert _payload(streamed) == _payload(
        profile_corpus_sharded(records, "skylake", seed=5,
                               shard_size=4))


@pytest.mark.parametrize("jobs", (1, 2))
def test_on_shard_fires_in_index_order(jobs):
    records = _records(count=22)
    seen = []
    profile_corpus_streamed(
        iter(records), "haswell", seed=5, jobs=jobs, shard_size=4,
        on_shard=lambda shard, profile:
            seen.append((shard.index, len(shard),
                         len(profile.throughputs))))
    assert [index for index, _, _ in seen] \
        == list(range(len(shard_corpus(records, 4))))
    assert sum(n for _, n, _ in seen) == len(records)


@pytest.mark.parametrize("jobs", (1, 2))
def test_stats_account_for_every_shard(jobs):
    records = _records(count=20)
    stats = {}
    profile_corpus_streamed(iter(records), "haswell", seed=5,
                            jobs=jobs, shard_size=4, stats=stats)
    assert stats["shards"] == 5
    assert stats["profiled"] == 5
    assert stats["cache_hits"] == 0
    assert stats["failed"] == 0
    assert stats["max_queue_depth"] >= 1


def test_empty_stream():
    profile = profile_corpus_streamed(iter(()), "haswell", seed=0)
    assert profile.throughputs == {}
    assert profile.funnel["total"] == 0


def test_journal_requires_identity(tmp_path):
    """A streamed run cannot digest a corpus it hasn't generated yet,
    so journalling demands an explicit identity."""
    cache = ShardCache(str(tmp_path))
    journal = RunJournal(os.path.join(str(tmp_path), JOURNAL_NAME))
    with pytest.raises(ValueError):
        profile_corpus_streamed(iter(_records(count=4)), "haswell",
                                seed=5, cache=cache, journal=journal)


@pytest.mark.parametrize("jobs", (1, 2))
def test_cache_interop_list_and_generator(tmp_path, jobs):
    """A list run warms the cache; the generator run over the same
    records resumes every shard from it (with no chaos armed)."""
    records = _records(count=16)
    cache = ShardCache(str(tmp_path))
    list_stats = {}
    listed = profile_corpus_sharded(records, "haswell", seed=5,
                                    jobs=jobs, shard_size=4,
                                    cache=cache, stats=list_stats)
    _assert_conserved(list_stats, 4)
    assert list_stats["cache_hits"] == 0
    stream_stats = {}
    streamed = profile_corpus_streamed(iter(records), "haswell",
                                       seed=5, jobs=jobs, shard_size=4,
                                       cache=cache, stats=stream_stats)
    _assert_conserved(stream_stats, 4)
    if chaos.active() is None:
        assert stream_stats["cache_hits"] == 4
        assert stream_stats["profiled"] == 0
    serial = profile_corpus_detailed(records, "haswell", seed=5)
    assert _payload(listed) == _payload(serial)
    assert _payload(streamed) == _payload(serial)


def test_streamed_run_is_rerunnable_from_journal(tmp_path):
    """Two streamed runs sharing a cache+journal: the second loads
    every shard back (with no chaos armed) and reproduces the first's
    bytes."""
    records = _records(count=16)

    def run():
        cache = ShardCache(str(tmp_path))
        journal = RunJournal(os.path.join(cache.directory,
                                          JOURNAL_NAME))
        stats = {}
        profile = profile_corpus_streamed(
            iter(records), "haswell", seed=5, jobs=2, shard_size=4,
            cache=cache, journal=journal,
            journal_meta={"uarch": "haswell", "seed": 5,
                          "stream": "test-rerun"}, stats=stats)
        return _payload(profile), stats

    first, first_stats = run()
    second, second_stats = run()
    assert first == second
    _assert_conserved(first_stats, 4)
    _assert_conserved(second_stats, 4)
    assert first_stats["resumed"] == 0
    if chaos.active() is None:
        assert second_stats["resumed"] == 4
        assert second_stats["profiled"] == 0


def test_prefetch_depth_does_not_change_bytes(monkeypatch):
    """Sweep the window and force an epoch reset every 4 blocks.

    Pool workers fork after the patch, so they inherit the epoch too;
    every run — serial and pooled, list and generator — must equal the
    plain serial walk.
    """
    records = _records(count=24)
    expected = _payload(profile_corpus_detailed(records, "haswell",
                                                seed=5))
    monkeypatch.setattr(engine, "EPOCH_BLOCKS", 4)
    for prefetch in (1, 2, 5):
        monkeypatch.setattr(engine, "PREFETCH_PER_JOB", prefetch)
        for jobs in (1, 2):
            streamed = profile_corpus_streamed(
                iter(records), "haswell", seed=5, jobs=jobs,
                shard_size=3)
            listed = profile_corpus_sharded(records, "haswell", seed=5,
                                            jobs=jobs, shard_size=3)
            assert _payload(streamed) == expected, (prefetch, jobs)
            assert _payload(listed) == expected, (prefetch, jobs)
