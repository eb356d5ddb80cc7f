"""The model half in the pool: forked static predictions and LDA.

With ``jobs > 1`` an :class:`Experiment` forks LDA beside its first
row's profiling, and ``validate`` forks the static models' predictions
while the parent trains and runs Ithemal.  Every row, the
classification and Ithemal's weights must equal a serial run's, a dead
worker must cost only a call in process, ``jobs=1`` must fork nothing,
the counters must add up as serially, and no thread may be alive in
the parent when anything forks.
"""

import json
import os
import threading
import zlib

import numpy as np
import pytest

from repro import telemetry
from repro.corpus import build_application
from repro.corpus.dataset import BlockRecord, Corpus
from repro.eval import pipeline, validation
from repro.eval.pipeline import UARCHES, Experiment
from repro.eval.validation import profile_corpus, validate
from repro.isa.parser import parse_block
from repro.models import IacaModel, IthemalModel, LlvmMcaModel, OsacaModel
from repro.parallel import engine
from repro.telemetry.core import MemorySink

SCALE = 0.0002

#: The process the tests run in; a forked worker has another pid.
PARENT = os.getpid()


def _models():
    return [IacaModel(), LlvmMcaModel(), IthemalModel(), OsacaModel()]


def _rows(result):
    return [(row.block_id, row.category, row.measured, row.predictions)
            for row in result.rows]


def _weights_crc(model: IthemalModel) -> int:
    crc = 0
    for uarch in sorted(model._nets):
        net = model._nets[uarch]
        for array in (net._w1, net._b1, net._w2, net._b2):
            crc = zlib.crc32(np.ascontiguousarray(
                array, dtype=np.float64).tobytes(), crc)
    return crc


def _suite(jobs: int, seed: int, cache: str, forks=None):
    """Every uarch's rows, the classification and Ithemal's weights
    from one experiment over the store in ``cache``.  ``forks``, if
    given, collects the parent's thread count at each fork."""
    real_fork = os.fork

    def fork():
        forks.append(threading.active_count())
        return real_fork()

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE", cache)
        if forks is not None:
            patch.setattr(os, "fork", fork)
        exp = Experiment(scale=SCALE, seed=seed, jobs=jobs)
        rows = {uarch: _rows(exp.validation(uarch)) for uarch in UARCHES}
        google = {app: _rows(exp.google_validation(app))
                  for app in ("spanner", "dremel")}
    ithemal = next(m for m in exp.models if isinstance(m, IthemalModel))
    return {"rows": rows, "google": google,
            "categories": exp.classification.categories,
            "doc_topics": exp.classification.doc_topics,
            "weights": _weights_crc(ithemal)}


@pytest.fixture(scope="module", params=[0, 1], ids=["seed0", "seed1"])
def suites(request, tmp_path_factory):
    """Serial over a cold store, pooled over a cold store, and pooled
    over the store the serial run filled."""
    seed = request.param
    serial_store = str(tmp_path_factory.mktemp("serial"))
    forks = []
    return {
        "serial": _suite(1, seed, serial_store),
        "threads": threading.active_count(),  # before the pooled runs
        "cold": _suite(2, seed, str(tmp_path_factory.mktemp("pooled")),
                       forks),
        "filled": _suite(2, seed, serial_store),
        "forks": forks,
    }


class TestPooledEqualsSerial:
    @pytest.mark.parametrize("store", ["cold", "filled"])
    def test_rows_classification_and_weights(self, suites, store):
        serial, pooled = suites["serial"], suites[store]
        for uarch in UARCHES:
            assert pooled["rows"][uarch] == serial["rows"][uarch], uarch
            assert pooled["rows"][uarch]
        assert pooled["google"] == serial["google"]
        assert pooled["categories"] == serial["categories"]
        assert np.array_equal(pooled["doc_topics"], serial["doc_topics"])
        assert pooled["weights"] == serial["weights"]

    def test_no_thread_is_alive_across_a_fork(self, suites):
        # LDA, the engine's pools and every row's model half forked.
        assert len(suites["forks"]) > len(UARCHES) + 1
        assert set(suites["forks"]) == {suites["threads"]}


def test_lda_and_static_models_leave_the_parent(tmp_path, monkeypatch):
    """At ``jobs=2`` the parent neither fits LDA nor runs a static
    model; at ``jobs=1`` it does both."""
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            if os.getpid() == PARENT:
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "classify_blocks",
                        spy("lda", pipeline.classify_blocks))
    for model in (IacaModel, LlvmMcaModel, OsacaModel):
        monkeypatch.setattr(model, "predict",
                            spy(model.name, model.predict))
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    seen = {}
    for jobs in (2, 1):
        calls.clear()
        Experiment(scale=SCALE, seed=0, jobs=jobs).validation("haswell")
        seen[jobs] = set(calls)
    assert seen[2] == set()
    assert seen[1] == {"lda", "IACA", "llvm-mca", "OSACA"}


@pytest.fixture(scope="module")
def tiny():
    """A small corpus and its measurements."""
    corpus = build_application("llvm", count=40, seed=21)
    return corpus, profile_corpus(corpus, "haswell", seed=1)


def _dies_in_a_worker(models, blocks, uarch):
    if os.getpid() != PARENT:
        os._exit(13)
    return _THROUGHPUTS(models, blocks, uarch)


_THROUGHPUTS = validation._throughputs


def test_dead_worker_falls_back_in_process(tiny, monkeypatch):
    corpus, measured = tiny
    serial = validate(corpus, "haswell", _models(), measured=measured)
    monkeypatch.setattr(validation, "_throughputs", _dies_in_a_worker)
    sink = MemorySink()
    telemetry.enable(sink)
    try:
        pooled = validate(corpus, "haswell", _models(), measured=measured,
                          jobs=2)
    finally:
        telemetry.reset()
    assert _rows(pooled) == _rows(serial)
    fallbacks = [r for r in sink.records
                 if r.get("name") == "parallel.forked_fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0]["exitcode"] == 13


def test_jobs_one_forks_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("jobs=1 must not fork")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", refuse)
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    exp = Experiment(scale=SCALE, seed=0, jobs=1)
    assert all(exp.validation(uarch).rows for uarch in UARCHES)
    assert exp.google_validation("spanner").rows


@pytest.mark.parametrize("jobs", [2, 4])
def test_counters_add_up_as_serially(tiny, jobs):
    """Unsupported blocks are counted where the models run, and the
    worker's counts come back to the parent."""
    base, measured = tiny
    # An rdtsc block at every eighth usable position lands in the
    # evaluation split (every other usable block), where every model
    # refuses it.
    records = [r for r in base.records if r.block_id in measured]
    for position in range(0, len(records), 8):
        block_id = 1000 + position
        records.insert(position, BlockRecord(
            block=parse_block(f"ror ${position % 7 + 1}, %r13\nrdtsc"),
            application="llvm", frequency=1, block_id=block_id))
    corpus = Corpus(records)
    measured = {**measured,
                **{r.block_id: 2.0 for r in records
                   if r.block_id >= 1000}}
    counted = {}
    for run_jobs in (1, jobs):
        telemetry.reset()
        telemetry.enable()
        try:
            result = validate(corpus, "haswell", _models(),
                              measured=measured, jobs=run_jobs)
            counted[run_jobs] = (
                telemetry.registry().snapshot()["counters"],
                json.dumps(_rows(result)))
        finally:
            telemetry.reset()
    assert counted[jobs] == counted[1]
    counters = counted[1][0]
    refused = 4 * len([r for r in records if r.block_id >= 1000])
    assert counters["models.unsupported_block"] == refused
    assert counters["uops.unsupported_mnemonic"] >= refused
    assert counters["validation.predictions"] > refused
