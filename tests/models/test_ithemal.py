"""The learned model: training protocol and behaviour."""

import numpy as np
import pytest

from repro import telemetry
from repro.isa.parser import parse_block
from repro.models import IthemalModel, TrainingConfig, ithemal
from repro.models.features import FEATURE_DIM, block_features
from repro.models.training import MlpRegressor
from repro.profiler import BasicBlockProfiler
from repro.uarch import Machine


@pytest.fixture(scope="module")
def trained(small_corpus_module):
    blocks, measured = small_corpus_module
    model = IthemalModel(TrainingConfig(epochs=150))
    model.fit(blocks, measured, "haswell")
    return model, blocks, measured


@pytest.fixture(scope="module")
def small_corpus_module():
    from repro.corpus import build_application
    corpus = build_application("llvm", count=150, seed=11)
    profiler = BasicBlockProfiler(Machine("haswell"))
    blocks, measured = [], []
    for record in corpus:
        result = profiler.profile(record.block)
        if result.ok and result.throughput > 0:
            blocks.append(record.block)
            measured.append(result.throughput)
    return blocks, measured


class TestTrainingProtocol:
    def test_untrained_returns_error(self):
        model = IthemalModel()
        from repro.corpus import div_block
        pred = model.predict_safe(div_block(), "haswell")
        assert not pred.ok
        assert "no trained model" in pred.error

    def test_is_trained_per_uarch(self, trained):
        model, _, _ = trained
        assert model.is_trained("haswell")
        assert not model.is_trained("skylake")

    def test_fit_length_mismatch(self):
        model = IthemalModel()
        with pytest.raises(ValueError):
            model.fit([], [1.0], "haswell")

    def test_reasonable_in_sample_error(self, trained):
        model, blocks, measured = trained
        errors = []
        for block, actual in zip(blocks, measured):
            pred = model.predict_safe(block, "haswell")
            errors.append(abs(pred.throughput - actual) / actual)
        assert sum(errors) / len(errors) < 0.25

    def test_predictions_positive_and_capped(self, trained):
        model, blocks, _ = trained
        for block in blocks[:20]:
            pred = model.predict_safe(block, "haswell")
            assert 0.25 <= pred.throughput < 10_000

    def test_no_interpretable_schedule(self, trained):
        """The paper: Ithemal outputs a single number, no trace."""
        model, blocks, _ = trained
        pred = model.predict_safe(blocks[0], "haswell")
        assert pred.schedule is None

    def test_deterministic(self, trained):
        model, blocks, _ = trained
        a = model.predict_safe(blocks[0], "haswell").throughput
        b = model.predict_safe(blocks[0], "haswell").throughput
        assert a == b


class TestFeatureMemo:
    """One feature vector per block text, shared by every uarch."""

    UARCHES = ("ivybridge", "haswell", "skylake")

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = []

        def spy(block):
            calls.append(block.text())
            return block_features(block)

        monkeypatch.setattr(ithemal, "block_features", spy)
        return calls

    def test_features_once_per_block_text_across_uarches(
            self, small_corpus_module, spied):
        blocks, measured = small_corpus_module
        # Re-parsed copies: equal texts in distinct objects.
        blocks = blocks + [parse_block(b.text()) for b in blocks[:10]]
        measured = measured + measured[:10]
        config = TrainingConfig(epochs=20)
        shared = IthemalModel(config)
        predictions = {}
        for uarch in self.UARCHES:
            shared.fit(blocks[::2], measured[::2], uarch)
            predictions[uarch] = [shared.predict(b, uarch).throughput
                                  for b in blocks]
        assert len(spied) == len(set(spied))
        assert set(spied) == {b.text() for b in blocks}
        for uarch in self.UARCHES:
            fresh = IthemalModel(config).fit(blocks[::2], measured[::2],
                                             uarch)
            assert [fresh.predict(b, uarch).throughput
                    for b in blocks] == predictions[uarch]

    def test_fit_span_reports_rows_epochs_and_memo(self,
                                                   small_corpus_module):
        from repro.telemetry import MemorySink
        blocks, measured = small_corpus_module
        model = IthemalModel(TrainingConfig(epochs=5))
        sink = MemorySink()
        telemetry.reset()
        telemetry.enable(sink)
        try:
            model.fit(blocks, measured, "haswell")
            model.fit(blocks, measured, "ivybridge")
        finally:
            telemetry.reset()
        first, second = [r for r in sink.records
                         if r["name"] == "models.ithemal.fit"]
        assert (first["uarch"], second["uarch"]) == ("haswell",
                                                     "ivybridge")
        assert first["epochs"] == 5
        assert first["feature_hits"] + first["feature_misses"] \
            == first["rows"]
        assert first["feature_misses"] > 0
        assert second["feature_misses"] == 0


class TestFeatures:
    def test_feature_dim_consistent(self):
        from repro.corpus import div_block
        assert block_features(div_block()).shape == (FEATURE_DIM,)

    def test_features_capture_block_differences(self):
        from repro.isa.parser import parse_block
        a = block_features(parse_block("add %rbx, %rax"))
        b = block_features(parse_block("mulps %xmm1, %xmm0"))
        assert not np.allclose(a, b)

    def test_bound_feature_tracks_chain(self):
        from repro.isa.parser import parse_block
        chained = block_features(parse_block("mulps %xmm1, %xmm0"))
        light = block_features(parse_block("add %rbx, %rax"))
        assert chained[-2] > light[-2]

    def test_zero_idiom_has_no_chain(self):
        from repro.isa.parser import parse_block
        idiom = block_features(
            parse_block("vxorps %xmm2, %xmm2, %xmm2"))
        assert idiom[-2] == pytest.approx(0.25)  # front-end floor


class TestMlpRegressor:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 5))
        y = x @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + 1.0
        net = MlpRegressor(TrainingConfig(epochs=200, hidden=32))
        net.fit(x, y)
        pred = net.predict(x)
        assert np.mean(np.abs(pred - y)) < 0.25

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MlpRegressor().predict(np.zeros((1, 3)))

    def test_training_losses_decrease(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 4))
        y = (x ** 2).sum(axis=1)
        net = MlpRegressor(TrainingConfig(epochs=100))
        net.fit(x, y)
        losses = net.training_losses
        assert losses[-1] < losses[0]

    def test_seeded_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 3))
        y = x.sum(axis=1)
        a = MlpRegressor(TrainingConfig(epochs=30, seed=5)).fit(x, y)
        b = MlpRegressor(TrainingConfig(epochs=30, seed=5)).fit(x, y)
        assert np.allclose(a.predict(x), b.predict(x))
