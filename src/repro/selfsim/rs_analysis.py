"""Rescaled-range (R/S) analysis with pox plots.

Equations (12)-(15) of the paper's appendix: for a window of length n with
mean A(n) and standard deviation S(n), the adjusted range is

    R(n) = max(0, W_1..W_n) − min(0, W_1..W_n),   W_k = Σ_{i≤k}(X_i − A(n))

and long-range-dependent data follows E[R(n)/S(n)] ≈ c·n^H.  Plotting
log(R/S) against log(n) over many window sizes and starting points (the
"pox plot") and fitting a line yields the Hurst estimate.

(The paper's Eq. 12 prints the prefactor as ``[1 - S(n)]``; the correct
rescaling — and the one its results clearly use — is division by S(n),
which is what we implement.)

:func:`rs_pox_points` evaluates each window size as one gathered
``(n_windows, size)`` matrix so the R/S statistics of all starts come out
of a handful of row-wise reductions instead of a Python loop per window.
The original per-window loop is kept outside the package as the
equivalence oracle (``tests/oracles/selfsim.py``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.stats.regression import LinearFit, linear_fit
from repro.util.validation import check_1d

__all__ = [
    "rs_statistic",
    "rs_pox_points",
    "hurst_rs",
]


def _rs_statistic_unchecked(arr: np.ndarray) -> float:
    """R/S of one validated window (hot-loop kernel, no re-validation)."""
    dev = arr - arr.mean()
    w = np.cumsum(dev)
    r = max(w.max(), 0.0) - min(w.min(), 0.0)
    s = arr.std()
    if s == 0:
        return float("nan")
    return float(r / s)


def rs_statistic(x) -> float:
    """R/S of one window; NaN when the window is constant (S = 0)."""
    arr = check_1d(x, "x", min_len=2)
    return _rs_statistic_unchecked(arr)


def _rs_rows(windows: np.ndarray) -> np.ndarray:
    """R/S of every row of a contiguous ``(n_windows, size)`` matrix.

    Row-wise mean/cumsum/max/min/std reduce along contiguous memory
    exactly as the 1-D statistic does, so each entry matches
    ``_rs_statistic_unchecked(row)`` bit for bit (asserted by the
    equivalence tests).  Constant rows (S = 0) come back NaN.
    """
    dev = windows - windows.mean(axis=1, keepdims=True)
    w = np.cumsum(dev, axis=1)
    r = np.maximum(w.max(axis=1), 0.0) - np.minimum(w.min(axis=1), 0.0)
    s = windows.std(axis=1)
    out = np.full(windows.shape[0], np.nan)
    np.divide(r, s, out=out, where=s != 0)
    return out


def _window_sizes(n: int, min_window: int, n_sizes: int) -> np.ndarray:
    max_window = n // 2
    if max_window < min_window:
        raise ValueError(
            f"series of length {n} is too short: need at least {2 * min_window} points"
        )
    sizes = np.unique(
        np.round(
            np.exp(np.linspace(np.log(min_window), np.log(max_window), n_sizes))
        ).astype(int)
    )
    return sizes[sizes >= min_window]


def rs_pox_points(
    x,
    *,
    min_window: int = 8,
    n_sizes: int = 20,
    max_starts: int = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (log n, log R/S) points of the pox plot.

    For each of ~*n_sizes* log-spaced window lengths, up to *max_starts*
    windows spread over the whole series are evaluated — all starts of a
    size at once via :func:`_rs_rows`.  Returns ``(log_n, log_rs)``
    arrays with one entry per finite window statistic.
    """
    arr = check_1d(x, "x", min_len=2 * min_window)
    n = arr.shape[0]
    log_ns: List[np.ndarray] = []
    log_rs: List[np.ndarray] = []
    for size in _window_sizes(n, min_window, n_sizes):
        n_windows = min(n // size, max_starts)
        # Spread the window starts over the whole series.
        starts = np.linspace(0, n - size, n_windows).astype(int)
        windows = arr[starts[:, None] + np.arange(size)[None, :]]
        values = _rs_rows(windows)
        keep = np.isfinite(values) & (values > 0)
        if keep.any():
            log_ns.append(np.full(int(keep.sum()), np.log(size)))
            log_rs.append(np.log(values[keep]))
    if not log_ns:
        return np.asarray([]), np.asarray([])
    return np.concatenate(log_ns), np.concatenate(log_rs)


def hurst_rs(
    x,
    *,
    min_window: int = 8,
    n_sizes: int = 20,
    max_starts: int = 16,
) -> Tuple[float, LinearFit]:
    """Hurst estimate from R/S analysis: the pox-plot regression slope.

    Returns ``(H, fit)``; H is clipped to [0, 1] only in the sense that the
    raw slope is reported — callers interested in the regression quality
    can inspect ``fit.r_squared``.
    """
    log_ns, log_rs = rs_pox_points(
        x, min_window=min_window, n_sizes=n_sizes, max_starts=max_starts
    )
    if log_ns.size < 3 or np.unique(log_ns).size < 2:
        raise ValueError("not enough valid pox-plot points to fit a slope")
    fit = linear_fit(log_ns, log_rs)
    return float(fit.slope), fit
