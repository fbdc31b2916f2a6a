"""Order-restoring transforms for nonmetric MDS.

Each SMACOF iteration replaces the raw dissimilarities by *disparities*:
values as close as possible to the current map distances while respecting
the dissimilarity order.  Two classic choices:

* :func:`isotonic_regression` — Kruskal's approach: the weighted
  least-squares monotone fit, computed by pool-adjacent-violators (PAVA).
* :func:`rank_image` — Guttman's approach (the one inside SSA): permute the
  *distances themselves* so their order matches the dissimilarity order;
  the disparities are then a rank-image of the distances.

The public functions validate their inputs; the SMACOF engine calls the
module-private unchecked kernels (``_pava``, ``_rank_image_unchecked``)
because it constructs valid inputs itself and runs them inside the
per-iteration hot loop.  The original scalar PAVA loop is kept outside
the package as the equivalence oracle (``tests/oracles/mds.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.util.validation import check_1d

__all__ = ["isotonic_regression", "rank_image"]


def _check_inputs(arr: np.ndarray, weights) -> np.ndarray:
    """Reject non-finite values; return validated (default unit) weights."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite")
    if weights is None:
        return np.ones_like(arr)
    w = check_1d(weights, "weights")
    if w.shape != arr.shape:
        raise ValueError("weights must match y in length")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must be positive and finite")
    return w


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unchecked weighted PAVA: vectorized parallel block merging.

    Every pass pools *all* adjacent violating blocks at once (pooling an
    adjacent violator is always part of the optimal solution, so the
    simultaneous merge is safe) and recomputes block means with
    ``np.add.reduceat``; the loop runs for the depth of the violation
    chains, not the element count, so no per-element Python work remains.
    """
    n = y.shape[0]
    starts = np.arange(n)
    wy = w * y
    values = y
    while True:
        viol = values[:-1] > values[1:]
        if not viol.any():
            break
        keep = np.ones(starts.shape[0], dtype=bool)
        keep[1:][viol] = False
        starts = starts[keep]
        values = np.add.reduceat(wy, starts) / np.add.reduceat(w, starts)
    counts = np.diff(np.append(starts, n))
    return np.repeat(values, counts)


def _pava_rows(y2d: np.ndarray) -> np.ndarray:
    """Unchecked unweighted PAVA applied independently to every row.

    One flat parallel block-merge over the whole ``(k, m)`` batch: block
    boundaries at row starts are never merged away, so rows stay
    independent and each row's result equals ``_pava(row, ones)`` — this
    is what lets the batched SMACOF engine fit all restarts' disparities
    in lockstep without a per-restart Python loop.
    """
    k, m = y2d.shape
    flat = np.ascontiguousarray(y2d).ravel()
    total = flat.shape[0]
    starts = np.arange(total)
    interior = np.ones(total, dtype=bool)
    interior[::m] = False  # block starts a new row: never merged away
    values = flat
    counts = np.ones(total, dtype=np.int64)
    while True:
        viol = (values[:-1] > values[1:]) & interior[1:]
        if not viol.any():
            break
        keep = np.ones(starts.shape[0], dtype=bool)
        keep[1:][viol] = False
        starts = starts[keep]
        interior = interior[keep]
        counts = np.empty(starts.shape[0], dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = total - starts[-1]
        values = np.add.reduceat(flat, starts) / counts
    return np.repeat(values, counts).reshape(k, m)


def isotonic_regression(y, weights=None) -> np.ndarray:
    """Weighted isotonic (non-decreasing) least-squares fit via PAVA.

    Parameters
    ----------
    y:
        Values in the order the fit must be monotone in (callers sort by
        dissimilarity first).
    weights:
        Optional positive weights.

    Returns
    -------
    numpy.ndarray
        The non-decreasing vector minimizing ``Σ w (fit - y)²``.
    """
    arr = check_1d(y, "y", min_len=1)
    w = _check_inputs(arr, weights)
    return _pava(arr, w)


def _rank_image_unchecked(d: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Rank-image kernel: no permutation re-verification (hot loop)."""
    out = np.empty(d.shape[0])
    out[order] = np.sort(d)
    return out


def rank_image(distances, order: Optional[np.ndarray] = None) -> np.ndarray:
    """Guttman's rank-image transform.

    Returns the vector holding the same multiset of values as *distances*
    but arranged so that its order agrees with *order* (the permutation that
    sorts the dissimilarities ascending).  With ``order=None`` the distances
    are assumed to be already listed in dissimilarity order, and the result
    is simply ``sort(distances)`` mapped back to the original positions.
    """
    d = check_1d(distances, "distances", min_len=1)
    n = len(d)
    if order is None:
        order = np.arange(n)
    else:
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
    # Positions listed in dissimilarity order receive the sorted distances.
    return _rank_image_unchecked(d, order)
