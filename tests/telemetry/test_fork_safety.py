"""Telemetry across forks: workers start clean beside instrumenting threads.

A pool worker or a ``Forked`` worker drops the telemetry it inherited
(``telemetry.reset()`` in the engine's worker initialiser).  That must
neither wait on a lock another parent thread held at the fork (the
heartbeat holds the sink's lock while it emits) nor write the parent's
unflushed records into the trace a second time.
"""

import threading
import time

import pytest

from repro import telemetry
from repro.corpus.dataset import build_application
from repro.parallel import profile_corpus_sharded
from repro.parallel.forked import Forked
from repro.telemetry import NdjsonSink, read_ndjson


def _sink_lock(sink):
    return sink._lock


def _registry_lock(sink):
    return telemetry.registry()._lock


@pytest.mark.parametrize("lock", [_sink_lock, _registry_lock],
                         ids=["sink", "registry"])
def test_a_lock_held_at_the_fork_does_not_hang_the_worker(
        tmp_path, monkeypatch, lock):
    # A hung worker would be replaced after the shard timeout, with a
    # fallback event.
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "3")
    path = tmp_path / "trace.ndjson"
    sink = NdjsonSink(str(path))
    telemetry.enable(sink)
    held = threading.Event()

    def hold():
        with lock(sink):
            held.set()
            time.sleep(1.0)

    thread = threading.Thread(target=hold)
    thread.start()
    held.wait()
    try:
        assert Forked(sum, [1, 2, 3], jobs=2).result() == 6
    finally:
        thread.join()
    telemetry.disable()
    names = [record["name"] for record in read_ndjson(str(path))]
    assert "parallel.forked_fallback" not in names


def _forked(_corpus):
    Forked(sum, [1, 2, 3], jobs=2).result()


def _pooled(corpus):
    profile_corpus_sharded(corpus, "haswell", jobs=2, shard_size=2)


@pytest.mark.parametrize("fork", [_forked, _pooled],
                         ids=["forked", "pooled"])
def test_unflushed_records_reach_the_trace_once(tmp_path, fork):
    corpus = build_application("llvm", count=8, seed=3)
    path = tmp_path / "trace.ndjson"
    telemetry.enable(str(path))  # a sink that does not autoflush
    for i in range(5):
        telemetry.event("test.marker", i=i)
    fork(corpus)
    telemetry.disable()
    assert [record["i"] for record in read_ndjson(str(path))
            if record["name"] == "test.marker"] == list(range(5))
