"""Stratified sampling: deterministic, order-blind, honest CIs.

Three layers:

* the sampler itself — seeded determinism, order-blindness (the kept
  *set* is a pure function of block content, never arrival order),
  exact per-stratum quotas, and stream/materialised agreement;
* the projection algebra — post-stratified recombination against
  synthetic validation rows with known answers;
* the acceptance criterion — a 25 % stratified sample's projected
  overall error covers the true full-corpus error within the reported
  bootstrap CI, for real models on a real (simulated) corpus.
"""

import random

import pytest

from repro.corpus import sampling
from repro.corpus.dataset import build_corpus
from repro.eval.validation import ValidationResult, ValidationRow


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(scale=0.002, seed=1)


class TestSampler:
    def test_deterministic(self, corpus):
        a = sampling.sample_corpus(corpus, 0.25, seed=7)
        b = sampling.sample_corpus(corpus, 0.25, seed=7)
        assert [r.block_id for r in a] == [r.block_id for r in b]

    def test_seed_changes_selection(self, corpus):
        a = sampling.sample_corpus(corpus, 0.25, seed=7)
        b = sampling.sample_corpus(corpus, 0.25, seed=8)
        assert {r.block_id for r in a} != {r.block_id for r in b}

    def test_order_blind(self, corpus):
        reference = {r.block_id
                     for r in sampling.sample_corpus(corpus, 0.25,
                                                     seed=7)}
        shuffled = list(corpus.records)
        random.Random(3).shuffle(shuffled)
        assert {r.block_id
                for r in sampling.sample_corpus(shuffled, 0.25,
                                                seed=7)} == reference

    def test_preserves_corpus_order(self, corpus):
        sample = sampling.sample_corpus(corpus, 0.25, seed=7)
        ids = [r.block_id for r in sample]
        assert ids == sorted(ids)

    def test_exact_quotas(self, corpus):
        fraction = 0.25
        full = sampling.stratum_counts(corpus)
        got = sampling.stratum_counts(
            sampling.sample_corpus(corpus, fraction, seed=7))
        for cell, n in full.items():
            assert got.get(cell, 0) == max(1, int(round(fraction * n)))

    def test_fraction_one_keeps_everything(self, corpus):
        sample = sampling.sample_corpus(corpus, 1.0, seed=0)
        assert len(sample) == len(corpus)

    def test_rejects_bad_fraction(self, corpus):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sampling.sample_corpus(corpus, bad)
            with pytest.raises(ValueError):
                list(sampling.sample_stream(iter(corpus), bad))

    def test_stream_order_blind_and_deterministic(self, corpus):
        kept = {r.block_id
                for r in sampling.sample_stream(iter(corpus), 0.25,
                                                seed=7)}
        shuffled = list(corpus.records)
        random.Random(5).shuffle(shuffled)
        assert {r.block_id
                for r in sampling.sample_stream(iter(shuffled), 0.25,
                                                seed=7)} == kept
        # Roughly the asked-for fraction (binomial, generous band).
        assert 0.10 * len(corpus) < len(kept) < 0.45 * len(corpus)

    def test_categories_are_exhaustive(self, corpus):
        for record in corpus:
            assert sampling.block_category(record.block) \
                in sampling.CATEGORIES


class TestProjectionAlgebra:
    """Synthetic rows with known per-stratum errors."""

    def _result(self, rows):
        return ValidationResult(uarch="haswell", rows=rows,
                                profiled_fraction=1.0,
                                model_names=["m"])

    def _record(self, corpus, block_id):
        return next(r for r in corpus if r.block_id == block_id)

    def test_post_stratified_estimate(self, corpus):
        # Two strata with constant within-stratum error: the estimate
        # must be the full-count-weighted mean, exactly.
        cells = sampling.stratum_counts(corpus)
        (cell_a, n_a), (cell_b, n_b) = sorted(
            cells.items(), key=lambda kv: -kv[1])[:2]
        per_cell = {cell_a: 0.10, cell_b: 0.30}
        rows, records = [], []
        for record in corpus:
            cell = sampling.stratum(record)
            if cell not in per_cell or len(rows) > 200:
                continue
            records.append(record)
            rows.append(ValidationRow(
                block_id=record.block_id,
                application=record.application,
                frequency=record.frequency,
                measured=2.0,
                predictions={"m": 2.0 * (1.0 + per_cell[cell])}))
        counts = {cell_a: n_a, cell_b: n_b}
        projection = sampling.project_validation(
            self._result(rows), records, counts, seed=0, bootstrap=50)
        expected = (n_a * 0.10 + n_b * 0.30) / (n_a + n_b)
        overall = projection["models"]["m"]["overall"]
        assert overall["estimate"] == pytest.approx(expected,
                                                    rel=1e-9)
        # Constant errors -> zero-width bootstrap interval.
        assert overall["low"] == pytest.approx(expected, rel=1e-9)
        assert overall["high"] == pytest.approx(expected, rel=1e-9)

    def test_projection_deterministic(self, corpus):
        records = corpus.records[:60]
        rows = [ValidationRow(block_id=r.block_id,
                              application=r.application,
                              frequency=r.frequency,
                              measured=2.0,
                              predictions={"m": 2.0 + 0.01
                                           * (r.block_id % 13)})
                for r in records]
        counts = sampling.stratum_counts(corpus)
        a = sampling.project_validation(self._result(rows), records,
                                        counts, seed=4)
        b = sampling.project_validation(self._result(rows), records,
                                        counts, seed=4)
        assert a == b
        c = sampling.project_validation(self._result(rows), records,
                                        counts, seed=5)
        assert a["models"]["m"]["overall"] \
            != c["models"]["m"]["overall"]

    def test_render_projection_mentions_models(self, corpus):
        records = corpus.records[:30]
        rows = [ValidationRow(block_id=r.block_id,
                              application=r.application,
                              frequency=r.frequency,
                              measured=1.0, predictions={"m": 1.1})
                for r in records]
        projection = sampling.project_validation(
            self._result(rows), records,
            sampling.stratum_counts(corpus), seed=0, bootstrap=20)
        text = sampling.render_projection(projection)
        assert "m" in text and "95% CI" in text


class TestAcceptance:
    """A 25 % sample projects the full-corpus error within its CI."""

    def test_quarter_sample_covers_full_error(self):
        from repro.eval.validation import profile_corpus, validate
        from repro.models import IacaModel, LlvmMcaModel

        corpus = build_corpus(scale=0.004, seed=0)
        counts = sampling.stratum_counts(corpus)
        models = [IacaModel(), LlvmMcaModel()]
        measured = profile_corpus(corpus, "haswell", seed=0)
        full = validate(corpus, "haswell", models, measured,
                        train_fraction=0.0)

        sample = sampling.sample_corpus(corpus, 0.25, seed=0)
        partial = validate(sample, "haswell", models, measured,
                           train_fraction=0.0)
        projection = sampling.project_validation(
            partial, sample.records, counts, seed=0)
        for model in ("IACA", "llvm-mca"):
            true_error = full.overall_error(model)
            overall = projection["models"][model]["overall"]
            assert overall["low"] <= true_error <= overall["high"], \
                (model, true_error, overall)
