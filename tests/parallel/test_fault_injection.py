"""Fault injection: worker death must degrade, never corrupt.

The stubs below stand in for the real shard worker (they are
module-level so the pool can pickle them by reference).  Three failure
shapes are injected — a clean exception, a hard process death, and a
hang past the shard timeout — and in every case the engine must (a)
retry the shard serially in the parent (a death only after the shard
died again in a pool of its own), (b) fall back to the
``worker_failure`` funnel bucket only if the retry fails too, and
(c) leave the result store exactly as correct as before: the blocks
of successful shards stored atomically, failed ones absent, never a
half-written record.
"""

import json
import os
import threading
import time

import pytest

from repro import telemetry
from repro.corpus.dataset import build_application, build_corpus
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import (DEFAULT_SHARD_SIZE, ShardCache,
                            profile_corpus_sharded, shard_corpus)
from repro.profiler.result import FailureReason
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPolicy


# --- picklable worker stubs -------------------------------------------------

def worker_raises(descriptor, config, index, records, siblings):
    raise RuntimeError("injected worker exception")


def worker_dies(descriptor, config, index, records, siblings):
    os._exit(13)  # hard death: BrokenProcessPool in the parent


def worker_hangs(descriptor, config, index, records, siblings):
    time.sleep(120)


def serial_retry_fails(descriptor, config, shard):
    raise RuntimeError("injected retry failure")


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return build_application("llvm", count=16, seed=3)


@pytest.fixture(scope="module")
def serial(corpus):
    return profile_corpus_detailed(corpus, "haswell", seed=0)


def _bytes(profile):
    return json.dumps({"t": profile.throughputs, "f": profile.funnel})


@pytest.mark.parametrize("stub", [worker_raises, worker_dies],
                         ids=["exception", "process-death"])
def test_failed_worker_is_retried_serially(corpus, serial, stub):
    stats = {}
    profile = profile_corpus_sharded(corpus, "haswell", seed=0,
                                     jobs=2, shard_size=8,
                                     worker_fn=stub, stats=stats)
    assert _bytes(profile) == _bytes(serial)  # rescue is bit-exact
    assert stats["retried"] == stats["shards"] == 2
    assert stats["failed"] == 0


def test_a_crash_costs_only_its_own_shard():
    """A dead worker breaks its whole pool, yet only its own shard is
    rescued: every other shard in flight runs once more in a one-worker
    pool of its own, where the planned crash repeats for that shard
    alone."""
    corpus = build_corpus(scale=0.0003, seed=9)
    policy = ChaosPolicy.parse("3:worker_crash=0.5")
    planned = [shard.index for shard in
               shard_corpus(corpus, DEFAULT_SHARD_SIZE)
               if policy.should_fire("worker_crash", shard.digest)]
    assert planned == [1, 4]  # of 5 shards, two windows
    stats, threads = {}, []
    real_fork = os.fork

    def fork():
        threads.append(threading.active_count())
        return real_fork()

    before = threading.active_count()
    telemetry.reset()
    telemetry.enable()
    try:
        with chaos.forced(policy), pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", fork)
            profile = profile_corpus_sharded(corpus, "haswell", seed=9,
                                             jobs=2, stats=stats)
        counters = telemetry.registry().snapshot()["counters"]
    finally:
        telemetry.reset()
    # The broken pools were joined before the one-worker pools forked.
    assert len(threads) > 2 and set(threads) == {before}
    assert _bytes(profile) == _bytes(
        profile_corpus_detailed(corpus, "haswell", seed=9))
    assert stats["retried"] == len(planned)
    assert counters["parallel.worker_retries"] == len(planned)
    assert counters["resilience.fault_injected.worker_crash"] \
        == len(planned)
    assert stats["failed"] == 0


def test_single_pending_shard_never_reaches_the_pool(corpus):
    """One pending shard profiles in-process even at ``jobs=2``, so a
    failing worker is never consulted and nothing is retried (the
    serve breaker counts retries as pool trouble)."""
    records = corpus.records[:8]
    stats = {}
    profile = profile_corpus_sharded(records, "haswell", seed=0,
                                     jobs=2, shard_size=8,
                                     worker_fn=worker_raises,
                                     stats=stats)
    assert _bytes(profile) == _bytes(
        profile_corpus_detailed(records, "haswell", seed=0))
    assert stats["shards"] == 1
    assert stats["retried"] == 0


def test_hanging_worker_times_out_and_is_rescued(corpus, serial):
    stats = {}
    start = time.perf_counter()
    profile = profile_corpus_sharded(corpus, "haswell", seed=0,
                                     jobs=2, shard_size=8,
                                     shard_timeout=1.0,
                                     worker_fn=worker_hangs,
                                     stats=stats)
    assert _bytes(profile) == _bytes(serial)
    assert stats["retried"] == 2
    # The hung workers were terminated, not waited out.
    assert time.perf_counter() - start < 60


def test_double_failure_lands_in_worker_failure_bucket(corpus):
    stats = {}
    profile = profile_corpus_sharded(corpus, "haswell", seed=0,
                                     jobs=2, shard_size=8,
                                     worker_fn=worker_raises,
                                     serial_fn=serial_retry_fails,
                                     stats=stats)
    reason = FailureReason.WORKER_FAILURE.value
    assert profile.throughputs == {}
    assert profile.funnel == {
        "total": len(corpus), "accepted": 0,
        "dropped": {reason: len(corpus)}}
    assert stats["failed"] == 2


class TestCacheIntegrityUnderFailure:
    def test_failed_shards_never_reach_the_cache(self, corpus, tmp_path):
        cache = ShardCache(str(tmp_path))
        profile_corpus_sharded(corpus, "haswell", seed=0, jobs=2,
                               shard_size=8, cache=cache,
                               worker_fn=worker_raises,
                               serial_fn=serial_retry_fails)
        assert len(cache) == 0
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))

    def test_rescued_shards_are_cached_correctly(self, corpus, serial,
                                                 tmp_path):
        cache = ShardCache(str(tmp_path))
        profile_corpus_sharded(corpus, "haswell", seed=0, jobs=2,
                               shard_size=8, cache=cache,
                               worker_fn=worker_dies)
        if chaos.active() is None:
            assert len(cache) == len(corpus)
        # Stored records replay the serial result exactly (blocks an
        # injected write fault left out are rescued again).
        replay = profile_corpus_sharded(corpus, "haswell", seed=0,
                                        jobs=2, shard_size=8,
                                        cache=cache,
                                        worker_fn=worker_dies)
        assert _bytes(replay) == _bytes(serial)
        if chaos.active() is None:
            stats = {}
            profile_corpus_sharded(corpus, "haswell", seed=0, jobs=2,
                                   shard_size=8, cache=cache,
                                   worker_fn=worker_raises,
                                   serial_fn=serial_retry_fails,
                                   stats=stats)
            assert stats["cache_hits"] == stats["shards"] == 2

    def test_kill_mid_write_leaves_no_visible_entry(self, tmp_path,
                                                    monkeypatch):
        """Dying mid-append must not surface a record."""
        cache = ShardCache(str(tmp_path))
        entry = {"throughput": 1.0}

        # Kill #1: process dies after half the line reached the log.
        real_write = os.write

        def dying_write(fd, data):
            real_write(fd, data[:len(data) // 2])
            raise KeyboardInterrupt("kill -9 arrives here")
        monkeypatch.setattr(os, "write", dying_write)
        with pytest.raises(KeyboardInterrupt):
            cache.store("haswell", "nop", entry)
        monkeypatch.undo()
        assert cache.load("haswell", "nop") is None
        assert len(cache) == 0

        # Kill #2: the torn tail that death left is ignored by a fresh
        # loader and never shadows the real record.
        cache = ShardCache(str(tmp_path))
        assert cache.load("haswell", "nop") is None

        # A later clean write cuts the tail off and goes through.
        assert cache.store("haswell", "nop", entry)
        assert cache.load("haswell", "nop") == entry
        assert ShardCache(str(tmp_path)).load("haswell", "nop") == entry
