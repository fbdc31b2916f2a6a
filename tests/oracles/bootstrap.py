"""Per-replicate bootstrap stability: the oracle for
:func:`repro.coplot.extend.bootstrap_stability`.

Each replicate is refit on its own through :meth:`Coplot.fit` and aligned
by a single-map Procrustes fit.  The production function embeds all
replicates in one batched SMACOF call and aligns them in one stacked SVD;
both draw identical column resamples and produce the same report.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coplot.extend import StabilityReport
from repro.coplot.model import Coplot
from repro.coplot.procrustes import procrustes_align, procrustes_disparity
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_2d

__all__ = ["bootstrap_stability_reference"]


def bootstrap_stability_reference(
    y,
    *,
    labels: Optional[Sequence[str]] = None,
    signs: Optional[Sequence[str]] = None,
    n_boot: int = 20,
    coplot: Optional[Coplot] = None,
    seed: SeedLike = 0,
) -> StabilityReport:
    """Refit-every-replicate bootstrap (arguments as
    :func:`repro.coplot.extend.bootstrap_stability`)."""
    mat = check_2d(y, "y")
    n, p = mat.shape
    cp = coplot if coplot is not None else Coplot(n_init=2)
    if signs is None:
        signs = [f"v{j}" for j in range(p)]
    reference = cp.fit(mat, labels=labels, signs=signs)
    ref_coords = reference.coords
    ref_scale = float(np.sqrt(np.mean(np.sum(ref_coords**2, axis=1))))
    if ref_scale == 0:
        ref_scale = 1.0

    rng = as_generator(seed)
    displacements = np.zeros((n_boot, n))
    disparities = []
    for b in range(n_boot):
        cols = rng.integers(0, p, size=p)
        # Resampled columns may repeat: suffix signs to keep them unique.
        boot_signs = [f"{signs[j]}~{k}" for k, j in enumerate(cols)]
        replicate = cp.fit(mat[:, cols], labels=labels, signs=boot_signs)
        aligned = procrustes_align(ref_coords, replicate.coords)
        displacements[b] = np.linalg.norm(aligned - ref_coords, axis=1) / ref_scale
        disparities.append(procrustes_disparity(ref_coords, replicate.coords))

    return StabilityReport(
        labels=list(reference.labels),
        reference=ref_coords,
        positional_spread=np.sqrt((displacements**2).mean(axis=0)),
        mean_disparity=float(np.mean(disparities)),
        n_boot=n_boot,
    )
