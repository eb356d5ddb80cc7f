"""Evaluation metrics."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from repro.eval.metrics import (average_error, kendall_tau,
                                relative_error, weighted_error)

#: Throughputs drawn mostly from a small pool, so ties in either input
#: and joint ties are frequent.
_THROUGHPUTS = (st.sampled_from((0.25, 1.0, 1.5, 2, 3.0, 8.0))
                | st.floats(min_value=0.01, max_value=1000.0))


def _same_float(ours, theirs) -> bool:
    """Bit-equal, or both NaN."""
    return type(ours) is float and (
        ours == theirs or (math.isnan(ours) and math.isnan(theirs)))


class TestRelativeError:
    def test_exact_prediction(self):
        assert relative_error(10.0, 10.0) == 0.0

    def test_symmetric_in_absolute_terms(self):
        assert relative_error(15.0, 10.0) == pytest.approx(0.5)
        assert relative_error(5.0, 10.0) == pytest.approx(0.5)

    def test_normalised_by_measured(self):
        assert relative_error(2.0, 1.0) == 1.0
        assert relative_error(2.0, 4.0) == 0.5

    def test_zero_measured_rejected(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestAggregates:
    def test_average(self):
        pairs = [(11.0, 10.0), (9.0, 10.0)]
        assert average_error(pairs) == pytest.approx(0.1)

    def test_average_empty(self):
        assert average_error([]) is None

    def test_weighted(self):
        triples = [(11.0, 10.0, 9.0), (20.0, 10.0, 1.0)]
        assert weighted_error(triples) == \
            pytest.approx((0.1 * 9 + 1.0 * 1) / 10)

    def test_weighted_zero_weight(self):
        assert weighted_error([(1.0, 1.0, 0.0)]) is None


class TestKendallTau:
    def test_perfect_ordering(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == \
            pytest.approx(1.0)

    def test_reversed_ordering(self):
        assert kendall_tau([4, 3, 2, 1], [10, 20, 30, 40]) == \
            pytest.approx(-1.0)

    def test_short_input(self):
        assert kendall_tau([1.0], [1.0]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])

    @given(st.lists(st.floats(min_value=0.1, max_value=100,
                              allow_nan=False),
                    min_size=3, max_size=30))
    def test_self_correlation_is_max(self, values):
        tau = kendall_tau(values, values)
        if len(set(values)) > 1:
            assert tau == pytest.approx(1.0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.1, max_value=100, allow_nan=False),
        st.floats(min_value=0.1, max_value=100, allow_nan=False)),
        min_size=3, max_size=30))
    def test_tau_bounded(self, pairs):
        predicted = [p for p, _ in pairs]
        measured = [m for _, m in pairs]
        tau = kendall_tau(predicted, measured)
        if tau is not None and tau == tau:  # not NaN
            assert -1.0 <= tau <= 1.0

    @given(st.lists(st.tuples(_THROUGHPUTS, _THROUGHPUTS),
                    min_size=2, max_size=80),
           st.booleans())
    def test_bit_identical_to_scipy(self, pairs, as_arrays):
        predicted = [p for p, _ in pairs]
        measured = [m for _, m in pairs]
        if as_arrays:
            predicted, measured = np.array(predicted), np.array(measured)
        assert _same_float(
            kendall_tau(predicted, measured),
            float(stats.kendalltau(predicted, measured).statistic))

    @pytest.mark.parametrize("n", [700, 5000])
    def test_bit_identical_to_scipy_past_many_merge_passes(self, n):
        rng = random.Random(n)
        pool = [rng.uniform(1.0, 50.0) for _ in range(n // 4)]
        measured = [rng.choice(pool) for _ in range(n)]
        predicted = [m * rng.uniform(0.5, 2.0) for m in measured]
        # Every seventh prediction is exact, so repeats of a pool value
        # among them tie in both inputs.
        predicted[::7] = measured[::7]
        assert _same_float(
            kendall_tau(predicted, measured),
            float(stats.kendalltau(predicted, measured).statistic))

    @pytest.mark.parametrize("predicted, measured", [
        ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),
        ([7.0, 7.0], [7.0, 7.0]),
        ([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [3.0, 2.0, float("nan")]),
    ])
    @pytest.mark.parametrize("as_arrays", [False, True])
    def test_all_tied_or_nan_input_is_nan_like_scipy(
            self, predicted, measured, as_arrays):
        if as_arrays:
            predicted, measured = np.array(predicted), np.array(measured)
        tau = kendall_tau(predicted, measured)
        assert math.isnan(tau)
        assert _same_float(
            tau, float(stats.kendalltau(predicted, measured).statistic))


@given(st.floats(min_value=0.01, max_value=1000, allow_nan=False),
       st.floats(min_value=0.01, max_value=1000, allow_nan=False))
def test_relative_error_nonnegative(predicted, measured):
    assert relative_error(predicted, measured) >= 0.0
