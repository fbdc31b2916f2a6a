"""SMACOF majorization MDS (metric and nonmetric), from scratch.

The engine behind :func:`repro.coplot.mds.ssa.smallest_space_analysis`.
Each iteration (a) replaces dissimilarities by disparities that respect
their order — via Kruskal isotonic regression or Guttman's rank-image — and
(b) applies the Guttman transform, the closed-form minimizer of the stress
majorization.  Multiple restarts (one deterministic from classical scaling,
the rest random) guard against local minima; the best configuration is kept.

Every restart runs in lockstep as one ``(k, n, dim)`` tensor — batched
Guttman transforms, per-restart vectorized PAVA, cached ``triu`` indices,
and no per-iteration input re-validation.  The original
one-restart-at-a-time scalar loop is kept outside the package as the
equivalence oracle (``tests/oracles/mds.py``); the property tests assert
both select the same restart and agree on coordinates to 1e-9.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.coplot.mds.alienation import coefficient_of_alienation
from repro.coplot.mds.base import (
    MDSResult,
    check_dissimilarity,
    pairwise_euclidean,
    upper_triangle,
)
from repro.coplot.mds.classical import classical_mds
from repro.coplot.mds.monotone import _pava_rows
from repro.obs.spans import span as obs_span
from repro.util.rng import SeedLike, as_generator

__all__ = ["smacof"]

_TRANSFORMS = ("metric", "isotonic", "rank-image")


@lru_cache(maxsize=128)
def _triu(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached strict-upper-triangle index pair for an n x n matrix.

    ``np.triu_indices`` costs O(n²) and was recomputed on every SMACOF
    iteration via ``_to_matrix``; the cache makes it once per size.
    """
    return np.triu_indices(n, k=1)


def _batched_pairwise(coords: np.ndarray) -> np.ndarray:
    """(k, n, dim) configurations -> (k, n, n) Euclidean distances.

    Accumulates squared differences one coordinate axis at a time: the
    same left-to-right summation a reduction over a short last axis
    performs, without materializing the (k, n, n, dim) temporary.
    """
    sq = None
    for a in range(coords.shape[2]):
        diff = coords[:, :, None, a] - coords[:, None, :, a]
        diff *= diff
        if sq is None:
            sq = diff
        else:
            sq += diff
    return np.sqrt(sq)


class _OrderKeys:
    """Loop-invariant keys for the batched per-row lexsort.

    The row labels and row offsets only depend on the batch shape, which
    shrinks as restarts converge; caching them per size keeps the
    per-iteration cost to the lexsort itself.
    """

    def __init__(self, m: int):
        self._m = m
        self._by_size: dict = {}

    def get(self, k: int) -> tuple:
        keys = self._by_size.get(k)
        if keys is None:
            rows = np.repeat(np.arange(k), self._m)
            offsets = (np.arange(k) * self._m)[:, None]
            keys = (rows, offsets)
            self._by_size[k] = keys
        return keys


def _batched_orders(
    sv_rows: np.ndarray, dv: np.ndarray, keys: _OrderKeys
) -> np.ndarray:
    """Per-row ``lexsort((dv[j], sv_rows[j]))`` permutations, in one lexsort.

    A single stable three-key sort (row, then sv, then dv) yields every
    restart's dissimilarity order at once; within a row the permutation is
    identical to the per-row call because lexsort is stable.  *sv_rows* is
    (k, m): a broadcast view when every restart shares the dissimilarities,
    or distinct rows when each restart embeds its own (bootstrap batches).
    """
    k, m = dv.shape
    rows, offsets = keys.get(k)
    order = np.lexsort((dv.ravel(), np.ascontiguousarray(sv_rows).ravel(), rows))
    return order.reshape(k, m) - offsets


def _batched_disparities(
    sv_rows: np.ndarray,
    dv: np.ndarray,
    transform: str,
    keys: _OrderKeys,
    orders: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Disparities for a (k, m) batch of distance vectors.

    *sv_rows* carries one dissimilarity vector per batch row (possibly a
    broadcast of a single shared vector).  *orders* short-circuits the
    per-iteration lexsort when the caller knows the dissimilarity order is
    iteration-invariant (tie-free rows: the distance key only breaks ties).
    """
    if transform == "metric":
        denom = np.sum(sv_rows * sv_rows, axis=1)
        safe = np.where(denom > 0, denom, 1.0)
        scale = np.where(denom > 0, np.sum(sv_rows * dv, axis=1) / safe, 1.0)
        return sv_rows * scale[:, None]
    if orders is None:
        orders = _batched_orders(sv_rows, dv, keys)
    out = np.empty_like(dv)
    if transform == "isotonic":
        fits = _pava_rows(np.take_along_axis(dv, orders, axis=1))
        np.put_along_axis(out, orders, fits, axis=1)
    else:
        # Rank-image: positions listed in dissimilarity order receive the
        # sorted distances, batched over restarts.
        np.put_along_axis(out, orders, np.sort(dv, axis=1), axis=1)
    return out


def _batched_stress(dhat: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Row-wise Kruskal stress-1 for (k, m) disparity/distance batches."""
    denom = np.sum(dv * dv, axis=1)
    num = np.sum((dhat - dv) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        stress = np.sqrt(num / denom)
    zero = denom == 0
    if zero.any():
        # Mirror kruskal_stress: all-zero distances give stress 0 when the
        # disparities are also (numerically) zero, infinity otherwise.
        for j in np.flatnonzero(zero):
            stress[j] = 0.0 if np.allclose(dhat[j], 0) else math.inf
    return stress


def _to_matrix_batch(flat: np.ndarray, n: int) -> np.ndarray:
    """(k, m) disparity vectors -> (k, n, n) symmetric matrices."""
    iu = _triu(n)
    mat = np.zeros((flat.shape[0], n, n))
    mat[:, iu[0], iu[1]] = flat
    mat[:, iu[1], iu[0]] = flat
    return mat


def _batched_guttman(
    coords: np.ndarray, dhat_mat: np.ndarray, d: Optional[np.ndarray] = None
) -> np.ndarray:
    """Guttman transform for a (k, n, dim) batch with unit weights.

    *d* lets the caller pass the distances it already computed for these
    configurations this iteration instead of recomputing them.
    """
    n = coords.shape[1]
    if d is None:
        d = _batched_pairwise(coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0, dhat_mat / np.where(d > 0, d, 1.0), 0.0)
    b = -ratio
    ar = np.arange(n)
    b[:, ar, ar] = 0.0
    b[:, ar, ar] = -b.sum(axis=2)
    return (b @ coords) / n


def _run_batch(
    sv: np.ndarray,
    n: int,
    starts: np.ndarray,
    transform: str,
    max_iter: int,
    tol: float,
) -> tuple:
    """All restarts in lockstep; returns per-restart (coords, stress,
    n_iter, converged) arrays, each restart advancing exactly as it would
    on its own.

    *sv* is either one shared dissimilarity vector (m,) — the multi-restart
    case — or per-restart vectors (k, m), which lets callers batch restarts
    of *different* embedding problems (bootstrap replicates) in one run.
    """
    k = starts.shape[0]
    per_row_sv = sv.ndim == 2
    m = sv.shape[-1]
    coords = starts.copy()
    stress_prev = np.full(k, math.inf)
    n_iter = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    active = np.ones(k, dtype=bool)
    iu = _triu(n)
    keys = _OrderKeys(m)
    # Tie-free dissimilarities admit an iteration-invariant sort order (the
    # distance key of the lexsort only disambiguates tied sv entries), so
    # the per-iteration lexsort collapses to one upfront argsort.
    sv_sorted = np.sort(sv, axis=-1)
    ties = bool((sv_sorted[..., 1:] == sv_sorted[..., :-1]).any())
    static_orders: Optional[np.ndarray] = None
    if not ties and transform != "metric":
        static_orders = np.argsort(sv, axis=-1, kind="stable")
        if not per_row_sv:
            static_orders = static_orders[None, :]
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        d = _batched_pairwise(coords[idx])
        dv = d[:, iu[0], iu[1]]
        sv_rows = sv[idx] if per_row_sv else np.broadcast_to(sv, dv.shape)
        orders = None
        if static_orders is not None:
            orders = static_orders[idx] if per_row_sv else static_orders
        dhat = _batched_disparities(sv_rows, dv, transform, keys, orders)
        norm = np.sum(dhat * dhat, axis=1)
        n_iter[idx] = it
        # Restarts whose disparities collapsed stop exactly like the
        # scalar loop's `break`: stress untouched, not converged.
        live = norm > 0
        if live.any():
            li = np.flatnonzero(live)
            dhat_l = dhat[li] * np.sqrt(m / norm[li])[:, None]
            stress = _batched_stress(dhat_l, dv[li])
            with np.errstate(invalid="ignore"):
                newly_conv = np.abs(stress_prev[idx[li]] - stress) < tol
            converged[idx[li[newly_conv]]] = True
            stress_prev[idx[li]] = stress
            go = li[~newly_conv]
            if go.size:
                gi = idx[go]
                coords[gi] = _batched_guttman(
                    coords[gi], _to_matrix_batch(dhat_l[~newly_conv], n), d=d[go]
                )
            active[idx[li[newly_conv]]] = False
        active[idx[~live]] = False
    coords = coords - coords.mean(axis=1, keepdims=True)
    return coords, stress_prev, n_iter, converged


def _default_starts(
    mat: np.ndarray, sv: np.ndarray, dim: int, n_init: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """The classical-scaling start plus ``n_init - 1`` random ones scaled
    to the mean dissimilarity, drawn from *rng* in order."""
    n = mat.shape[0]
    starts = [classical_mds(mat, dim=dim)]
    scale = float(sv.mean())
    for _ in range(n_init - 1):
        starts.append(rng.normal(scale=scale, size=(n, dim)))
    return starts


def smacof(
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
    """Run SMACOF MDS on a dissimilarity matrix.

    Parameters
    ----------
    s:
        Symmetric n x n dissimilarity matrix.
    dim:
        Target dimensionality (the paper uses 2).
    transform:
        ``"metric"`` (disparities proportional to the dissimilarities),
        ``"isotonic"`` (Kruskal nonmetric) or ``"rank-image"`` (Guttman
        nonmetric, the SSA flavour).
    init:
        Optional starting configuration (n x dim).  When given, only this
        start is used.
    n_init:
        Number of starts: the first is deterministic (classical scaling),
        the rest are random.
    max_iter, tol:
        Per-start iteration budget (>= 1) and the finite, non-negative
        stress-change stopping tolerance.
    select_by:
        ``"alienation"`` keeps the restart with the lowest coefficient of
        alienation (what the paper reports); ``"stress"`` keeps the lowest
        Kruskal stress.
    seed:
        RNG seed for the random restarts.

    Returns
    -------
    MDSResult
    """
    mat = check_dissimilarity(s)
    n = mat.shape[0]
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    if select_by not in ("alienation", "stress"):
        raise ValueError(f"select_by must be 'alienation' or 'stress', got {select_by!r}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    sv = upper_triangle(mat)
    if np.all(sv == 0):
        # Degenerate: all observations identical; everything at the origin.
        return MDSResult(
            coords=np.zeros((n, dim)), alienation=0.0, stress=0.0, n_iter=0, converged=True
        )
    rng = as_generator(seed)

    if init is not None:
        init_arr = np.asarray(init, dtype=float)
        if init_arr.shape != (n, dim):
            raise ValueError(f"init must have shape ({n}, {dim}), got {init_arr.shape}")
        starts = [init_arr]
    else:
        starts = _default_starts(mat, sv, dim, n_init, rng)

    best: Optional[MDSResult] = None
    best_key = math.inf
    # The SSA/SMACOF iteration loop is the engine's hottest path; the
    # ambient span makes it visible in streamed traces (no-op untraced).
    with obs_span("mds.solve", transform=transform, n=n, starts=len(starts)) as handle:
        all_coords, stresses, n_iters, convs = _run_batch(
            sv, n, np.stack(starts), transform, max_iter, tol
        )
        for coords, stress, it, conv in zip(all_coords, stresses, n_iters, convs):
            theta = coefficient_of_alienation(sv, upper_triangle(pairwise_euclidean(coords)))
            key = theta if select_by == "alienation" else stress
            if key < best_key:
                best_key = key
                best = MDSResult(
                    coords=coords,
                    alienation=theta,
                    stress=float(stress),
                    n_iter=int(it),
                    converged=bool(conv),
                )
        assert best is not None
        handle.set(
            n_iter=best.n_iter,
            converged=best.converged,
            alienation=round(best.alienation, 6),
        )
    return best
