"""Telemetry threaded through the real pipeline.

The coverage contract: every block the harness sees lands in exactly
one funnel bucket, so accepted + dropped always equals the corpus
size — the paper's "no user intervention" claim, made checkable.
"""

import json
import os
import zlib

import pytest

from repro import FailureReason, parse_block, telemetry
from repro.corpus import build_corpus
from repro.eval.pipeline import Experiment
from repro.profiler import BasicBlockProfiler
from repro.uarch import Machine

#: ~50 blocks at the paper's 358k-block full scale.
SMALL_SCALE = 0.0001


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(scale=SMALL_SCALE, seed=7)


class TestProfileFunnel:
    def test_profile_many_accounts_for_every_block(self, small_corpus):
        telemetry.enable()
        profiler = BasicBlockProfiler(Machine("haswell"))
        results = profiler.profile_many(
            [record.block for record in small_corpus])

        assert len(results) == len(small_corpus) >= 20
        funnel = telemetry.funnel_from_counters(
            telemetry.registry().snapshot()["counters"])
        assert funnel["total"] == len(small_corpus)
        assert funnel["accepted"] == sum(1 for r in results if r.ok)
        assert funnel["accepted"] + sum(funnel["dropped"].values()) \
            == len(small_corpus)
        # dropped reasons mirror the per-result failures exactly
        by_reason = {}
        for result in results:
            if not result.ok:
                by_reason[result.failure.value] = \
                    by_reason.get(result.failure.value, 0) + 1
        assert funnel["dropped"] == by_reason

    def test_block_latency_histogram_fed(self, small_corpus):
        telemetry.enable()
        profiler = BasicBlockProfiler(Machine("haswell"))
        profiler.profile_many(
            [record.block for record in small_corpus][:10])
        summary = telemetry.registry() \
            .histogram("profiler.block_latency_ms").summary()
        assert summary["count"] == 10
        assert summary["p50"] > 0


class TestExperimentCache:
    @pytest.fixture(autouse=True)
    def _cache_dir(self, tmp_path, monkeypatch):
        self.cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE", str(self.cache))

    def test_miss_then_hit_with_funnel_round_trip(self):
        from repro.parallel import shard_corpus
        telemetry.enable()
        first = Experiment(scale=SMALL_SCALE, seed=7,
                           uarches=("haswell",))
        measured = first.measured("haswell")
        shards = len(shard_corpus(first.corpus, first.shard_size))
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["cache.misses"] == 1
        # One record per block (the corpus has no repeated text).
        assert counters["cache.writes"] == len(first.corpus)
        assert counters.get("cache.hits", 0) == 0
        funnel = first.funnel("haswell")
        assert funnel["total"] == len(first.corpus)
        assert funnel["accepted"] == len(measured)

        # A fresh Experiment re-reads from disk: hit, same data,
        # same funnel (the breakdown survives the store).
        second = Experiment(scale=SMALL_SCALE, seed=7)
        assert second.measured("haswell") == measured
        assert second.funnel("haswell") == funnel
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["parallel.shard_cache_hits"] == shards
        assert counters["cache.shard.hits"] == len(first.corpus)

    def test_cache_files_are_versioned_and_atomic(self):
        experiment = Experiment(scale=SMALL_SCALE, seed=7,
                                uarches=("haswell",))
        experiment.measured("haswell")
        (name,) = os.listdir(self.cache)
        assert name == "results_7"
        # One log per uarch: no temp files, nothing quarantined.
        assert os.listdir(self.cache / name) == ["haswell.log"]
        with open(self.cache / name / "haswell.log") as fh:
            records = fh.read().splitlines()
        assert len(records) == len(experiment.corpus)
        texts = set()
        for record in records:
            doc = json.loads(record)
            rec = doc["rec"]
            assert rec["version"] == 1
            assert rec["uarch"] == "haswell"
            assert doc["crc"] == zlib.crc32(
                json.dumps(rec, sort_keys=True).encode())
            texts.add(rec["text"])
        assert texts == {r.block.text() for r in experiment.corpus}


class TestRunReport:
    def test_validation_emits_complete_report(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_REPORT_DIR", str(tmp_path / "reports"))
        telemetry.enable()
        experiment = Experiment(scale=SMALL_SCALE, seed=7)
        experiment.validation("haswell")

        path = tmp_path / "reports" / "run_validation_haswell.json"
        assert path.exists()
        with open(path) as fh:
            report = json.load(fh)
        funnel = report["funnel"]
        assert funnel["accepted"] + sum(funnel["dropped"].values()) \
            == funnel["total"] == report["meta"]["corpus_size"]
        stage_names = {s["stage"] for s in report["stages"]}
        assert "experiment.measure" in stage_names
        assert "experiment.validate" in stage_names
        assert report["cache"]["misses"] == 1
        assert (tmp_path / "reports"
                / "run_validation_haswell.txt").exists()


class TestUnsupportedInstructions:
    """The rdtsc seed bug: unsupported mnemonics must degrade, not
    crash (uops.timing_class used to raise KeyError)."""

    def test_profiler_returns_unsupported(self):
        result = BasicBlockProfiler(Machine("haswell")) \
            .profile(parse_block("rdtsc"))
        assert not result.ok
        assert result.failure is FailureReason.UNSUPPORTED

    def test_models_return_error_prediction_and_count_it(self):
        from repro.models import simulator_models
        telemetry.enable()
        block = parse_block("ror $5, %r13\nrdtsc")
        for model in simulator_models():
            prediction = model.predict_safe(block, "haswell")
            assert not prediction.ok
            assert "rdtsc" in prediction.error
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["models.unsupported_block"] \
            == len(simulator_models())
        assert counters["uops.unsupported_mnemonic"] \
            == len(simulator_models())
