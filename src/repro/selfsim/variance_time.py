"""Variance-time plots.

Equations (16)-(17): for a self-similar process the aggregated series
satisfies ``Var(X^(m)) ∝ m^{-β}``, so the log-log plot of aggregated
variance against block size m is a line of slope −β, and H = 1 − β/2.
A slope between −1 and 0 indicates long-range dependence (0.5 < H < 1);
white noise gives slope −1 exactly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.selfsim.aggregate import _aggregate_unchecked
from repro.stats.regression import LinearFit, linear_fit
from repro.util.validation import check_1d

__all__ = [
    "variance_time_points",
    "hurst_variance_time",
]


def _vt_sizes(n: int, min_blocks: int, n_sizes: int) -> np.ndarray:
    max_m = n // min_blocks
    if max_m < 2:
        raise ValueError(
            f"series of length {n} too short for variance-time analysis "
            f"(need at least {2 * min_blocks} points)"
        )
    return np.unique(
        np.round(np.exp(np.linspace(0.0, np.log(max_m), n_sizes))).astype(int)
    )


def variance_time_points(
    x,
    *,
    min_blocks: int = 8,
    n_sizes: int = 20,
) -> Tuple[np.ndarray, np.ndarray]:
    """(log m, log Var(X^(m))) pairs for log-spaced block sizes m.

    Block sizes run from 1 up to n/*min_blocks*, so every variance is
    estimated from at least *min_blocks* aggregated points.  The series
    is validated once; each block size then runs the unchecked
    reshape-and-reduce aggregation kernel.
    """
    arr = check_1d(x, "x", min_len=2)
    log_m = []
    log_var = []
    for m in _vt_sizes(arr.shape[0], min_blocks, n_sizes):
        v = float(_aggregate_unchecked(arr, int(m)).var())
        if v > 0:
            log_m.append(np.log(m))
            log_var.append(np.log(v))
    return np.asarray(log_m), np.asarray(log_var)


def hurst_variance_time(
    x,
    *,
    min_blocks: int = 8,
    n_sizes: int = 20,
) -> Tuple[float, LinearFit]:
    """Hurst estimate from the variance-time plot: H = 1 + slope/2.

    (slope = −β and H = 1 − β/2.)  Returns ``(H, fit)``.
    """
    log_m, log_var = variance_time_points(x, min_blocks=min_blocks, n_sizes=n_sizes)
    if log_m.size < 3 or np.unique(log_m).size < 2:
        raise ValueError("not enough variance-time points to fit a slope")
    fit = linear_fit(log_m, log_var)
    return float(1.0 + fit.slope / 2.0), fit
