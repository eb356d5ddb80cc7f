"""The §V validation protocol."""

import pytest

from repro.corpus import build_application
from repro.eval.validation import (ValidationRow, profile_corpus,
                                   validate)
from repro.models import IacaModel, IthemalModel, OsacaModel


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_application("llvm", count=80, seed=21)


@pytest.fixture(scope="module")
def measured(tiny_corpus):
    return profile_corpus(tiny_corpus, "haswell", seed=1)


@pytest.fixture(scope="module")
def result(tiny_corpus, measured):
    models = [IacaModel(), IthemalModel(), OsacaModel()]
    return validate(tiny_corpus, "haswell", models, measured)


class TestValidate:
    def test_rows_only_for_profiled_blocks(self, result, tiny_corpus):
        assert 0 < len(result.rows) < len(tiny_corpus)
        assert result.profiled_fraction > 0.8

    def test_all_models_predicted(self, result):
        assert set(result.model_names) == {"IACA", "Ithemal", "OSACA"}
        for row in result.rows:
            assert set(row.predictions) == set(result.model_names)

    def test_ithemal_trained_during_validation(self, result):
        assert result.coverage("Ithemal") == 1.0

    def test_overall_errors_positive(self, result):
        for model in result.model_names:
            error = result.overall_error(model)
            assert error is not None and error > 0

    def test_train_eval_split_disjoint(self, tiny_corpus, measured):
        models = [IthemalModel()]
        res = validate(tiny_corpus, "haswell", models, measured,
                       train_fraction=0.5)
        # Evaluation rows are roughly half of the usable blocks.
        assert len(res.rows) < len(tiny_corpus) * 0.7

    def test_per_application_grouping(self, result):
        per_app = result.per_application_error("IACA")
        assert set(per_app) == {"llvm"}

    def test_per_category_grouping(self, tiny_corpus, measured):
        categories = {r.block_id: (r.block_id % 6) + 1
                      for r in tiny_corpus}
        res = validate(tiny_corpus, "haswell", [IacaModel()], measured)
        groups = res.per_category_error("IACA", categories)
        assert set(groups) <= set(range(1, 7))

    def test_kendall_tau_reasonable(self, result):
        tau = result.kendall_tau("IACA")
        assert 0.3 < tau <= 1.0

    def test_weighted_error_differs_from_unweighted(self, result):
        w = result.weighted_overall_error("IACA")
        u = result.overall_error("IACA")
        assert w is not None and u is not None


class TestProfileCorpus:
    def test_returns_only_successes(self, tiny_corpus):
        measured = profile_corpus(tiny_corpus, "haswell", seed=1)
        ids = {r.block_id for r in tiny_corpus}
        assert set(measured) <= ids
        assert all(v > 0 for v in measured.values())


class TestValidationRowApi:
    def test_coverage_counts_missing_predictions(self):
        from repro.eval.validation import ValidationResult
        rows = [
            ValidationRow(0, "a", 1, 2.0, {"M": 1.0}),
            ValidationRow(1, "a", 1, 2.0, {"M": None}),
        ]
        res = ValidationResult("haswell", rows, 1.0, ["M"])
        assert res.coverage("M") == 0.5
        # Errors computed only over rows with predictions.
        assert res.overall_error("M") == pytest.approx(0.5)
