"""Batched Hurst-estimator kernels ≡ the scalar oracle loops in
``tests/oracles/selfsim.py``, bitwise.

The windowed R/S and variance-time fast paths reduce along rows of
contiguous matrices, which numpy evaluates with the same pairwise
summation as the 1-D statistics — so equality here is exact, not
approximate, and any future drift (e.g. a reduction-order change) fails
loudly instead of silently shifting Table 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.selfsim import rs_pox_points_reference, variance_time_points_reference
from repro.selfsim.rs_analysis import _rs_rows, rs_pox_points, rs_statistic
from repro.selfsim.variance_time import variance_time_points


def _series(seed, n, walk=True):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return np.cumsum(x) if walk else x


class TestRsEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=16, max_value=600),
        walk=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pox_points_bitwise_equal(self, seed, n, walk):
        x = _series(seed, n, walk)
        fast = rs_pox_points(x)
        ref = rs_pox_points_reference(x)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])

    def test_pox_points_bitwise_equal_long_series(self):
        x = _series(42, 50_000)
        fast = rs_pox_points(x)
        ref = rs_pox_points_reference(x)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])

    def test_rows_kernel_matches_scalar_statistic(self):
        rng = np.random.default_rng(9)
        windows = rng.normal(size=(13, 64))
        got = _rs_rows(windows)
        want = [rs_statistic(row) for row in windows]
        assert np.array_equal(got, np.asarray(want))

    def test_constant_windows_stay_nan(self):
        windows = np.vstack([np.ones(16), np.arange(16.0)])
        got = _rs_rows(windows)
        assert np.isnan(got[0]) and np.isfinite(got[1])

    def test_constant_series_yields_no_points(self):
        fast = rs_pox_points(np.ones(64))
        ref = rs_pox_points_reference(np.ones(64))
        assert fast[0].size == 0 and ref[0].size == 0
        assert fast[0].shape == ref[0].shape


class TestVarianceTimeEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=16, max_value=2000),
        walk=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_bitwise_equal(self, seed, n, walk):
        x = _series(seed, n, walk)
        fast = variance_time_points(x)
        ref = variance_time_points_reference(x)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])

    def test_short_series_rejected_identically(self):
        with pytest.raises(ValueError):
            variance_time_points(np.arange(8.0))
        with pytest.raises(ValueError):
            variance_time_points_reference(np.arange(8.0))
