"""Tests for PAVA isotonic regression and Guttman's rank-image transform."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.coplot import isotonic_regression, rank_image

vectors = hnp.arrays(
    float,
    st.integers(min_value=1, max_value=60),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


class TestIsotonicRegression:
    def test_already_monotone_unchanged(self):
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(isotonic_regression(y), y)

    def test_single_violation_pooled(self):
        out = isotonic_regression([1.0, 3.0, 2.0])
        assert np.allclose(out, [1.0, 2.5, 2.5])

    def test_decreasing_input_pooled_to_mean(self):
        out = isotonic_regression([3.0, 2.0, 1.0])
        assert np.allclose(out, 2.0)

    @given(vectors)
    def test_property_output_monotone(self, y):
        out = isotonic_regression(y)
        assert np.all(np.diff(out) >= -1e-9)

    @given(vectors)
    def test_property_mean_preserved(self, y):
        # Unweighted PAVA preserves the total (block means).
        assert isotonic_regression(y).mean() == pytest.approx(y.mean(), abs=1e-6)

    @given(vectors)
    def test_property_idempotent(self, y):
        once = isotonic_regression(y)
        twice = isotonic_regression(once)
        assert np.allclose(once, twice)

    @given(vectors)
    def test_property_best_l2_monotone_fit(self, y):
        """PAVA beats (or ties) a simple monotone competitor: the sorted y."""
        fit = isotonic_regression(y)
        competitor = np.sort(y)
        assert np.sum((fit - y) ** 2) <= np.sum((competitor - y) ** 2) + 1e-6

    def test_weights_shift_pool(self):
        out = isotonic_regression([3.0, 1.0], weights=[3.0, 1.0])
        assert np.allclose(out, [2.5, 2.5])

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="positive"):
            isotonic_regression([1.0, 2.0], weights=[1.0, 0.0])
        with pytest.raises(ValueError, match="match"):
            isotonic_regression([1.0, 2.0], weights=[1.0])
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                isotonic_regression([1.0, 2.0, 3.0], weights=[1.0, bad, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                isotonic_regression([1.0, bad, 3.0])


class TestRankImage:
    def test_identity_order_sorts(self):
        out = rank_image([3.0, 1.0, 2.0])
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_respects_given_order(self):
        # order says: position 1 has the smallest dissimilarity, then 2, then 0.
        out = rank_image([5.0, 1.0, 3.0], order=np.array([1, 2, 0]))
        assert out[1] == 1.0 and out[2] == 3.0 and out[0] == 5.0

    @given(vectors)
    def test_property_multiset_preserved(self, d):
        out = rank_image(d)
        assert np.allclose(np.sort(out), np.sort(d))

    @given(vectors)
    def test_property_monotone_in_order(self, d):
        rng = np.random.default_rng(0)
        order = rng.permutation(len(d))
        out = rank_image(d, order)
        assert np.all(np.diff(out[order]) >= -1e-12)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            rank_image([1.0, 2.0], order=np.array([0, 0]))
