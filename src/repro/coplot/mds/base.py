"""Shared result type and small helpers for the MDS algorithms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MDSResult", "pairwise_euclidean", "upper_triangle", "check_dissimilarity"]


@dataclass(frozen=True)
class MDSResult:
    """Outcome of an MDS run.

    Attributes
    ----------
    coords:
        n x dim configuration, centred at the origin.
    alienation:
        Guttman's coefficient of alienation Θ (Eq. 4); values below 0.15
        are considered good by the paper.
    stress:
        Kruskal stress-1 of the final configuration against its disparities.
    n_iter:
        Majorization iterations actually performed (best restart).
    converged:
        Whether the stopping tolerance was reached before ``max_iter``.
    """

    coords: np.ndarray
    alienation: float
    stress: float
    n_iter: int
    converged: bool

    @property
    def n_observations(self) -> int:
        return int(self.coords.shape[0])

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])


def check_dissimilarity(s) -> np.ndarray:
    """Validate a dissimilarity matrix: square, finite, symmetric,
    non-negative, zero diagonal."""
    mat = np.asarray(s, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"dissimilarity matrix must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if not np.all(np.isfinite(mat)):
        raise ValueError("dissimilarity matrix contains NaN or infinite entries")
    if not np.allclose(mat, mat.T, rtol=1e-8, atol=1e-10):
        raise ValueError("dissimilarity matrix must be symmetric")
    if np.any(mat < 0):
        raise ValueError("dissimilarities must be non-negative")
    if not np.allclose(np.diag(mat), 0.0, atol=1e-10):
        raise ValueError("dissimilarity matrix must have a zero diagonal")
    return mat


def pairwise_euclidean(coords: np.ndarray) -> np.ndarray:
    """Full n x n Euclidean distance matrix of a configuration."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def upper_triangle(mat: np.ndarray) -> np.ndarray:
    """Strict upper-triangle entries as a flat vector (row-major order)."""
    n = mat.shape[0]
    iu = np.triu_indices(n, k=1)
    return mat[iu]
