"""``Forked``: one call in a one-shot forked worker."""

import os
import threading

import pytest

from repro import telemetry
from repro.parallel.forked import Forked
from repro.telemetry.core import MemorySink

#: The process the tests run in; a forked worker has another pid.
PARENT = os.getpid()


def where(value):
    """``value`` and the pid that computed it, counting one call."""
    telemetry.count("test.calls")
    return value, os.getpid()


def raises(message):
    raise ValueError(message)


def dies_in_a_worker(value):
    if os.getpid() != PARENT:
        os._exit(7)
    return where(value)


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def test_jobs_one_calls_in_process(monkeypatch):
    def refuse():
        raise AssertionError("jobs=1 must not fork")
    monkeypatch.setattr(os, "fork", refuse)
    assert Forked(where, "x", jobs=1).result() == ("x", PARENT)


def test_jobs_two_computes_in_a_worker_and_brings_counters_back():
    telemetry.enable()
    value, pid = Forked(where, {"a": [1.5]}, jobs=2).result()
    assert value == {"a": [1.5]}
    assert pid != PARENT
    assert telemetry.registry().snapshot()["counters"]["test.calls"] == 1


def test_counters_stay_off_when_the_parent_collects_none():
    Forked(where, 1, jobs=2).result()
    telemetry.enable()
    assert "test.calls" not in telemetry.registry().snapshot()["counters"]


def test_exception_propagates_as_serially():
    pending = Forked(raises, "boom", jobs=2)
    with pytest.raises(ValueError, match="boom"):
        pending.result()


def test_dead_worker_falls_back_with_one_event():
    sink = MemorySink()
    telemetry.enable(sink)
    assert Forked(dies_in_a_worker, 3, jobs=2).result() == (3, PARENT)
    events = [r for r in sink.records
              if r.get("name") == "parallel.forked_fallback"]
    assert len(events) == 1
    assert events[0]["exitcode"] == 7
    assert events[0]["call"] == "dies_in_a_worker"


def test_starts_no_thread():
    before = threading.active_count()
    pending = Forked(where, 2, jobs=2)
    assert threading.active_count() == before
    assert pending.result()[0] == 2
    assert threading.active_count() == before
