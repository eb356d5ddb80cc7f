"""The cached experiment pipeline."""

import os
import subprocess
import sys

import pytest

from repro.eval.pipeline import Experiment, default_experiment


@pytest.fixture()
def tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    return Experiment(scale=0.0003, seed=9)


class TestLaziness:
    def test_corpus_built_once(self, tiny):
        assert tiny.corpus is tiny.corpus

    def test_models_are_the_papers_four(self, tiny):
        names = {m.name for m in tiny.models}
        assert names == {"IACA", "llvm-mca", "Ithemal", "OSACA"}

    def test_classification_covers_corpus(self, tiny):
        assert len(tiny.classification.categories) == len(tiny.corpus)


def _records(directory, uarch):
    return {name for name in os.listdir(directory)
            if name.startswith(f"{uarch}-")}


class TestMeasurementCache:
    def test_disk_cache_roundtrip(self, tiny, tmp_path):
        first = tiny.measured("haswell")
        assert os.listdir(tmp_path) == ["results_9"]
        assert _records(tmp_path / "results_9", "haswell")
        # A fresh experiment object reads the store instead of
        # re-simulating.
        again = Experiment(scale=0.0003, seed=9)
        assert again.measured("haswell") == first
        assert again.funnel("haswell") == tiny.funnel("haswell")

    def test_store_keyed_by_block_text(self, tiny, tmp_path):
        """Records are keyed by block text: a different corpus (another
        scale) adds records for its own blocks to the same per-seed
        store and reads back the blocks the two corpora share."""
        tiny.measured("haswell")
        store = tmp_path / "results_9"
        before = _records(store, "haswell")
        other = Experiment(scale=0.0004, seed=9)
        other.measured("haswell")
        after = _records(store, "haswell")
        texts = {r.block.text() for r in other.corpus}
        assert before < after
        assert len(after) == len(
            texts | {r.block.text() for r in tiny.corpus})

    def test_grown_corpus_reprofiles_only_new_shards(self, tiny,
                                                     tmp_path):
        """Incremental invalidation: appending blocks leaves the
        existing records valid, so a re-run only profiles the tail."""
        from repro.corpus.dataset import Corpus, build_application

        records = build_application("llvm", count=40, seed=9).records
        base = Corpus(records[:30])
        grown = Corpus(records)  # base + one more 10-block shard

        first = Experiment(scale=0.0003, seed=9, shard_size=10,
                           uarches=("haswell",))
        measured_base = first.measured("haswell", corpus=base)
        store = tmp_path / "results_9"
        before = _records(store, "haswell")
        assert len(before) == 30

        second = Experiment(scale=0.0003, seed=9, shard_size=10,
                            uarches=("haswell",))
        measured_grown = second.measured("haswell", corpus=grown)
        after = _records(store, "haswell")
        # Every pre-existing record was reused verbatim; only the
        # appended shard's blocks produced new ones.
        assert before <= after
        assert len(after - before) == 10
        for block_id, value in measured_base.items():
            assert measured_grown[block_id] == value

    def test_measured_jobs_override_is_bit_identical(self, tiny,
                                                     tmp_path):
        serial = tiny.measured("haswell")
        import shutil
        shutil.rmtree(tmp_path / "results_9")
        fresh = Experiment(scale=0.0003, seed=9)
        parallel = fresh.measured("haswell", jobs=2)
        assert parallel == serial
        assert fresh.funnel("haswell") == tiny.funnel("haswell")

    def test_validation_cached_per_uarch(self, tiny):
        val = tiny.validation("haswell")
        assert tiny.validation("haswell") is val
        assert val.rows


class TestGoogle:
    def test_google_validation_excludes_osaca(self, tiny):
        val = tiny.google_validation("spanner")
        assert "OSACA" not in val.model_names
        assert val.rows

    def test_google_corpora_both_apps(self, tiny):
        assert set(tiny.google_corpora) == {"spanner", "dremel"}


def test_default_experiment_is_shared():
    assert default_experiment(0.0003, 99) is \
        default_experiment(0.0003, 99)


_PIPELINE_ENV = ("REPRO_SCALE", "REPRO_SEED", "REPRO_JOBS",
                 "REPRO_SHARD_SIZE")


def _import_pipeline(tmp_path, **env):
    """Import the pipeline in a fresh interpreter under ``env``."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                        "..", ".."))
    full = {k: v for k, v in os.environ.items() if k not in _PIPELINE_ENV}
    full["PYTHONPATH"] = os.path.join(root, "src")
    full.update(env)
    script = ("import repro.eval.pipeline as p; print(p.DEFAULT_SCALE, "
              "p.DEFAULT_SEED, p.DEFAULT_JOBS, p.SHARD_SIZE)")
    return subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=full, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("value", ["", "  "], ids=["empty", "blank"])
def test_blank_pipeline_env_reads_as_unset(tmp_path, value):
    out = _import_pipeline(tmp_path,
                           **{name: value for name in _PIPELINE_ENV})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0.004", "0", "1", "32"]


def test_garbage_pipeline_env_is_an_error(tmp_path):
    out = _import_pipeline(tmp_path, REPRO_JOBS="abc")
    assert out.returncode != 0
    assert "ValueError" in out.stderr
