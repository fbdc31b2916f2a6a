"""Scalar SMACOF and PAVA: the oracles for :mod:`repro.coplot.mds`.

:func:`smacof_reference` runs each restart on its own through the
original per-iteration loop (:func:`_run_single`); the production
:func:`~repro.coplot.mds.smacof.smacof` advances every restart in
lockstep.  Both draw the same start configurations and select by the
same criterion, so they agree on coordinates to 1e-9 and pick the same
restart.  :func:`isotonic_regression_reference` is the explicit-stack
PAVA loop that the vectorized block merge replaced.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.coplot.mds.alienation import coefficient_of_alienation, kruskal_stress
from repro.coplot.mds.base import (
    MDSResult,
    check_dissimilarity,
    pairwise_euclidean,
    upper_triangle,
)
from repro.coplot.mds.monotone import _check_inputs, rank_image
from repro.coplot.mds.smacof import _default_starts, _triu
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_1d

__all__ = ["isotonic_regression_reference", "smacof_reference"]


def isotonic_regression_reference(y, weights=None) -> np.ndarray:
    """The original scalar PAVA loop.

    Maintains blocks as (value, weight, count) on an explicit stack and
    merges backwards whenever a new block violates monotonicity.  Same
    contract as :func:`repro.coplot.mds.isotonic_regression`.
    """
    arr = check_1d(y, "y", min_len=1)
    w = _check_inputs(arr, weights)

    n = len(arr)
    values = np.empty(n)
    wsums = np.empty(n)
    counts = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        values[top] = arr[i]
        wsums[top] = w[i]
        counts[top] = 1
        top += 1
        while top > 1 and values[top - 2] > values[top - 1]:
            total_w = wsums[top - 2] + wsums[top - 1]
            values[top - 2] = (
                values[top - 2] * wsums[top - 2] + values[top - 1] * wsums[top - 1]
            ) / total_w
            wsums[top - 2] = total_w
            counts[top - 2] += counts[top - 1]
            top -= 1
    return np.repeat(values[:top], counts[:top])


def _disparities(sv: np.ndarray, dv: np.ndarray, transform: str) -> np.ndarray:
    """Disparities for the current distances *dv* given dissimilarities
    *sv*, one restart at a time."""
    if transform == "metric":
        denom = float(np.sum(sv * sv))
        scale = float(np.sum(sv * dv)) / denom if denom > 0 else 1.0
        return sv * scale
    # Ties in sv are broken by the current distances (Kruskal's primary
    # approach): within a tie block the distances are free to keep their
    # own order.
    order = np.lexsort((dv, sv))
    out = np.empty_like(dv)
    if transform == "isotonic":
        out[order] = isotonic_regression_reference(dv[order])
    elif transform == "rank-image":
        out = rank_image(dv, order)
    else:
        raise ValueError(f"unknown transform {transform!r}")
    return out


def _guttman_transform(coords: np.ndarray, dhat_mat: np.ndarray) -> np.ndarray:
    """One Guttman transform step: X <- (1/n) B(X) X with unit weights."""
    n = coords.shape[0]
    d = pairwise_euclidean(coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0, dhat_mat / np.where(d > 0, d, 1.0), 0.0)
    b = -ratio
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=1))
    return (b @ coords) / n


def _to_matrix(flat: np.ndarray, n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    iu = _triu(n)
    mat[iu] = flat
    mat[(iu[1], iu[0])] = flat
    return mat


def _run_single(
    sv: np.ndarray,
    n: int,
    coords: np.ndarray,
    transform: str,
    max_iter: int,
    tol: float,
) -> tuple:
    m = len(sv)
    stress_prev = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        dv = upper_triangle(pairwise_euclidean(coords))
        dhat = _disparities(sv, dv, transform)
        # Normalize disparities to fixed total squared size to pin the
        # scale of the problem (standard nonmetric SMACOF normalization).
        norm = float(np.sum(dhat**2))
        if norm <= 0:
            break
        dhat = dhat * math.sqrt(m / norm)
        stress = kruskal_stress(dhat, dv)
        if abs(stress_prev - stress) < tol:
            converged = True
            stress_prev = stress
            break
        stress_prev = stress
        coords = _guttman_transform(coords, _to_matrix(dhat, n))
    coords = coords - coords.mean(axis=0)
    return coords, float(stress_prev), it, converged


def smacof_reference(
    s,
    dim: int = 2,
    *,
    transform: str = "isotonic",
    init: Optional[np.ndarray] = None,
    n_init: int = 8,
    max_iter: int = 300,
    tol: float = 1e-9,
    select_by: str = "alienation",
    seed: SeedLike = None,
) -> MDSResult:
    """Sequential-restart SMACOF with the production start draws and
    restart selection (arguments as :func:`repro.coplot.mds.smacof`)."""
    mat = check_dissimilarity(s)
    n = mat.shape[0]
    sv = upper_triangle(mat)
    if np.all(sv == 0):
        return MDSResult(
            coords=np.zeros((n, dim)), alienation=0.0, stress=0.0, n_iter=0, converged=True
        )
    rng = as_generator(seed)
    if init is not None:
        starts = [np.asarray(init, dtype=float).copy()]
    else:
        starts = _default_starts(mat, sv, dim, n_init, rng)

    best: Optional[MDSResult] = None
    best_key = math.inf
    for start in starts:
        coords, stress, it, conv = _run_single(sv, n, start, transform, max_iter, tol)
        theta = coefficient_of_alienation(sv, upper_triangle(pairwise_euclidean(coords)))
        key = theta if select_by == "alienation" else stress
        if key < best_key:
            best_key = key
            best = MDSResult(
                coords=coords, alienation=theta, stress=stress, n_iter=it, converged=conv
            )
    assert best is not None
    return best
