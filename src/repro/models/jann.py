"""Jann's workload model (Jann, Pattnaik, Franke, Wang, Skovira & Riodan,
JSSPP 1997, "Modeling of Workload in MPPs").

The method: partition jobs into job-size ranges (1, 2, 3-4, 5-8, ... —
essentially powers of two), and within each range model the runtime with a
hyper-Erlang distribution of common order whose parameters match the first
three sample moments; inter-arrival times get the same treatment globally.
Jann fitted against the Cornell Theory Center SP2 trace — which is why the
paper's Figure 4 finds the model closest to CTC (and its SP2 sibling KTH).

The original parameter tables are not reproducible offline, but the *fit
procedure* is, and it is the model: :meth:`JannModel.fit` performs the
three-moment hyper-Erlang match against any workload.
:meth:`JannModel.default` fits against this reproduction's CTC-equivalent
synthesized log, mirroring exactly how the original tables were produced
(DESIGN.md §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import WorkloadModel
from repro.stats.distributions import Discrete, Distribution, Exponential
from repro.stats.moments import fit_hyper_erlang, sample_moments
from repro.util.rng import SeedLike

__all__ = ["JannRangeParameters", "JannModel", "power_of_two_ranges"]


def power_of_two_ranges(machine_procs: int) -> List[Tuple[int, int]]:
    """Jann's job-size ranges: [1,1], [2,2], [3,4], [5,8], ... up to P."""
    if machine_procs < 1:
        raise ValueError(f"machine_procs must be >= 1, got {machine_procs}")
    ranges: List[Tuple[int, int]] = [(1, 1)]
    hi = 1
    while hi < machine_procs:
        lo = hi + 1
        hi = min(hi * 2, machine_procs)
        ranges.append((lo, hi))
    return ranges


def _fit_positive(data: np.ndarray, *, winsor: float = 0.995) -> Distribution:
    """Three-moment hyper-Erlang fit with an exponential fallback for
    samples whose moments admit no two-branch mixture (e.g. CV < 1).

    The sample is winsorized at the *winsor* quantile first: a handful of
    extreme values otherwise dominate the third moment and collapse the
    fitted mixture onto the tail, losing the body of the distribution
    (moment matching's classic failure on very heavy tails).
    """
    data = data[data > 0]
    if data.size < 3:
        raise ValueError("need at least 3 positive samples to fit")
    cap = float(np.quantile(data, winsor))
    if cap > 0:
        data = np.minimum(data, cap)
    try:
        return fit_hyper_erlang(sample_moments(data, 3), from_data=False).distribution
    except ValueError:
        return Exponential(1.0 / float(data.mean()))


@dataclass(frozen=True)
class JannRangeParameters:
    """Fitted parameters of one job-size range.

    ``interarrival`` is the hyper-Erlang of the gaps between consecutive
    submissions *within the range* — the paper: "Both the running time and
    inter-arrival times are modeled using hyper Erlang distributions of
    common order, where the parameters for each range of number of
    processors are derived by matching the first 3 moments."  ``None``
    falls back to the model-level global arrival process.
    """

    lo: int
    hi: int
    probability: float
    sizes: Discrete  #: empirical size distribution within the range
    runtime: Distribution  #: hyper-Erlang (or fallback) runtime distribution
    interarrival: Optional[Distribution] = None


class JannModel(WorkloadModel):
    """Hyper-Erlang per-size-range model.

    Construct directly from fitted :class:`JannRangeParameters`, or use
    :meth:`fit` / :meth:`default`.
    """

    name = "Jann"

    def __init__(
        self,
        ranges: Sequence[JannRangeParameters],
        interarrival: Distribution,
        machine_procs: int = 512,
    ):
        super().__init__(machine_procs)
        if not ranges:
            raise ValueError("need at least one size range")
        total = sum(r.probability for r in ranges)
        if total <= 0:
            raise ValueError("range probabilities must not all be zero")
        self.ranges = list(ranges)
        self._range_probs = np.array([r.probability for r in ranges]) / total
        #: Fallback arrival process for ranges without their own fit.
        self.interarrival = interarrival

    @classmethod
    def fit(cls, workload, *, min_jobs_per_range: int = 20) -> "JannModel":
        """Fit the model to a workload, exactly as Jann et al. fitted CTC.

        Ranges with fewer than *min_jobs_per_range* jobs are merged into
        their nearest populated neighbour (by dropping them and letting the
        range probabilities renormalize).
        """
        run = workload.column("run_time")
        procs = workload.column("used_procs")
        valid = (run > 0) & (procs > 0)
        run = run[valid]
        procs = procs[valid].astype(int)
        n = run.size
        if n < min_jobs_per_range:
            raise ValueError(f"workload has only {n} usable jobs")

        submit_all = workload.sorted_by_submit().column("submit_time")
        procs_by_submit = workload.sorted_by_submit().column("used_procs")

        fitted: List[JannRangeParameters] = []
        for lo, hi in power_of_two_ranges(workload.machine.processors):
            mask = (procs >= lo) & (procs <= hi)
            count = int(mask.sum())
            if count < min_jobs_per_range:
                continue
            sizes_here = procs[mask]
            values, counts = np.unique(sizes_here, return_counts=True)
            # Per-range arrival process: gaps between consecutive
            # submissions of jobs in this size range (the paper's per-range
            # three-moment inter-arrival fit).
            range_submits = submit_all[(procs_by_submit >= lo) & (procs_by_submit <= hi)]
            range_ia: Optional[Distribution] = None
            if range_submits.size > min_jobs_per_range:
                gaps = np.diff(np.sort(range_submits))
                gaps = gaps[gaps > 0]
                if gaps.size >= 3:
                    range_ia = _fit_positive(gaps)
            fitted.append(
                JannRangeParameters(
                    lo=lo,
                    hi=hi,
                    probability=count / n,
                    sizes=Discrete(values.astype(float), counts.astype(float)),
                    runtime=_fit_positive(run[mask]),
                    interarrival=range_ia,
                )
            )
        if not fitted:
            raise ValueError("no size range had enough jobs to fit")
        from repro.workload.statistics import interarrival_times

        ia = interarrival_times(workload)
        interarrival = _fit_positive(ia)
        return cls(fitted, interarrival, machine_procs=workload.machine.processors)

    @classmethod
    def default(cls, seed: SeedLike = 7) -> "JannModel":
        """The model fitted to this reproduction's CTC-equivalent log.

        Imported lazily to keep :mod:`repro.models` independent of
        :mod:`repro.archive`.
        """
        from repro.archive import synthesize_workload

        ctc = synthesize_workload("CTC", seed=seed)
        return cls.fit(ctc)

    def _draw_blocks(self, n_jobs: int, rng: np.random.Generator) -> list:
        """Per-range draw blocks, shared with the scalar oracle.

        Each size range runs its own renewal arrival process (the paper's
        per-range inter-arrival fits); the streams are then merged.  The
        per-range job counts follow the fitted range probabilities.
        """
        counts = rng.multinomial(n_jobs, self._range_probs)
        blocks = []
        for params, cnt in zip(self.ranges, counts):
            if cnt == 0:
                continue
            sizes = params.sizes.sample(cnt, rng)
            runtimes = params.runtime.sample(cnt, rng)
            arrival_dist = (
                params.interarrival if params.interarrival is not None else self.interarrival
            )
            gaps = arrival_dist.sample(cnt, rng)
            blocks.append((int(cnt), sizes, runtimes, gaps))
        return blocks

    def _generate_arrays(self, n_jobs: int, rng: np.random.Generator) -> dict:
        submit = np.empty(n_jobs)
        procs = np.empty(n_jobs, dtype=np.int64)
        run_time = np.empty(n_jobs)
        offset = 0
        for cnt, sizes, runtimes, gaps in self._draw_blocks(n_jobs, rng):
            sl = slice(offset, offset + cnt)
            procs[sl] = sizes.astype(np.int64)
            run_time[sl] = runtimes
            submit[sl] = np.cumsum(gaps) - gaps[0]
            offset += cnt
        return {
            "submit_time": submit,
            "run_time": run_time,
            "used_procs": np.clip(procs, 1, self.machine_procs),
            "wait_time": np.zeros(n_jobs),
        }
