"""Open/closed-loop arrival-process front ends for the workload models.

The web-workload literature (and load-generator practice, e.g. AsyncFlow's
``RqsGenerator``) distinguishes two driving modes:

* **open loop** — requests arrive from a large population at a configured
  rate, independent of how the system copes: a doubly-stochastic Poisson
  process whose intensity is re-sampled every *window* from the number of
  active users (active users × per-user rate, re-sampled per window);
* **closed loop** — a fixed population of users submits a job, waits for
  it to finish, thinks, and submits the next one, so the offered rate is
  throttled by the system's own response times.

Both front ends *wrap* any :class:`~repro.models.base.WorkloadModel`:
:meth:`drive` generates the model's job bodies (sizes, runtimes, the
figure-4 marginals) and replaces the model's native arrival pattern with
the configured process, yielding a workload the scheduler simulator can
replay at load-test scale.  Model draws and arrival draws come from
independent child streams of one seed, so driving is exactly as
reproducible as generating.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import WorkloadModel
from repro.util.rng import SeedLike, as_generator, spawn_children
from repro.util.validation import check_positive
from repro.workload.fields import FIELD_NAMES
from repro.workload.workload import Workload

__all__ = ["OpenLoopArrivals", "ClosedLoopArrivals"]


def _replace_columns(stream: Workload, name_suffix: str, **replaced) -> Workload:
    """A copy of *stream* with the given columns replaced, resorted."""
    columns = {name: stream.column(name) for name in FIELD_NAMES}
    columns.update(replaced)
    out = Workload(columns, stream.machine, name=f"{stream.name}{name_suffix}")
    return out.sorted_by_submit()


class OpenLoopArrivals:
    """Doubly-stochastic (windowed) Poisson arrival process.

    Parameters
    ----------
    mean_active_users:
        Mean number of concurrently active users.
    per_user_rate_per_min:
        Jobs each active user submits per minute.
    window_s:
        Re-sampling window: the active-user count (and hence the process
        intensity) is redrawn every *window_s* seconds.
    users_distribution:
        ``"poisson"`` (default) or ``"normal"`` for the per-window active
        user count; normal uses *users_std* and clips at zero.
    users_std:
        Standard deviation of the normal user count (default: a quarter of
        the mean).
    """

    def __init__(
        self,
        mean_active_users: float,
        per_user_rate_per_min: float,
        *,
        window_s: float = 60.0,
        users_distribution: str = "poisson",
        users_std: Optional[float] = None,
    ):
        self.mean_active_users = check_positive(mean_active_users, "mean_active_users")
        self.per_user_rate_per_min = check_positive(
            per_user_rate_per_min, "per_user_rate_per_min"
        )
        self.window_s = check_positive(window_s, "window_s")
        if users_distribution not in ("poisson", "normal"):
            raise ValueError(
                f"users_distribution must be 'poisson' or 'normal', "
                f"got {users_distribution!r}"
            )
        self.users_distribution = users_distribution
        self.users_std = (
            check_positive(users_std, "users_std")
            if users_std is not None
            else self.mean_active_users / 4.0
        )

    def expected_rate(self) -> float:
        """Mean arrival rate in jobs per second."""
        return self.mean_active_users * self.per_user_rate_per_min / 60.0

    def sample_times(self, n_jobs: int, seed: SeedLike = None) -> np.ndarray:
        """The first *n_jobs* arrival times of the process, in seconds.

        Windows are generated in bulk: per window the active-user count is
        redrawn, the window's job count is Poisson with the implied
        intensity, and arrivals land uniformly inside the window.
        """
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        rng = as_generator(seed)
        per_window = self.expected_rate() * self.window_s
        chunks = []
        collected = 0
        window_start = 0.0
        while collected < n_jobs:
            # Enough windows to cover the deficit in expectation, plus slack.
            n_windows = max(8, int((n_jobs - collected) / max(per_window, 1e-9)) + 4)
            if self.users_distribution == "poisson":
                users = rng.poisson(self.mean_active_users, n_windows).astype(float)
            else:
                users = np.clip(
                    rng.normal(self.mean_active_users, self.users_std, n_windows),
                    0.0,
                    None,
                )
            intensity = users * self.per_user_rate_per_min / 60.0
            counts = rng.poisson(intensity * self.window_s)
            total = int(counts.sum())
            offsets = rng.random(total) * self.window_s
            starts = window_start + np.repeat(
                np.arange(n_windows) * self.window_s, counts
            )
            times = starts + offsets
            # Arrivals are unordered inside a window; sorting windows of a
            # sorted-start sequence orders the whole chunk.
            chunks.append(np.sort(times, kind="stable"))
            collected += total
            window_start += n_windows * self.window_s
        out = np.concatenate(chunks)[:n_jobs]
        return out

    def drive(self, model: WorkloadModel, n_jobs: int, seed: SeedLike = None) -> Workload:
        """Generate *n_jobs* jobs from *model* arriving via this process."""
        model_rng, arrival_rng = spawn_children(seed, 2)
        stream = model.generate(n_jobs, seed=model_rng)
        return _replace_columns(
            stream, "+open-loop", submit_time=self.sample_times(n_jobs, arrival_rng)
        )


class ClosedLoopArrivals:
    """Fixed-population think-time (closed-loop) arrival process.

    Each of *n_users* virtual users cycles submit → run to completion →
    think → submit.  The offered throughput is self-throttled at
    ``n_users / (mean_runtime + mean_think_s)`` jobs per second — the
    closed-loop law the property tests assert.
    """

    def __init__(self, n_users: int, mean_think_s: float):
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        self.n_users = int(n_users)
        self.mean_think_s = check_positive(mean_think_s, "mean_think_s")

    def expected_rate(self, mean_runtime_s: float) -> float:
        """Steady-state throughput in jobs/second for a given mean runtime."""
        return self.n_users / (float(mean_runtime_s) + self.mean_think_s)

    def drive(self, model: WorkloadModel, n_jobs: int, seed: SeedLike = None) -> Workload:
        """Generate *n_jobs* jobs from *model*, submitted by the closed loop.

        Jobs are dealt round-robin to the virtual users; each user's next
        submission follows the previous job's completion plus an
        exponential think time (jobs run on submission — the pure-model
        stance the generators share).
        """
        model_rng, arrival_rng = spawn_children(seed, 2)
        stream = model.generate(n_jobs, seed=model_rng)
        runtimes = stream.column("run_time")
        thinks = arrival_rng.exponential(self.mean_think_s, n_jobs)

        submit = np.empty(n_jobs)
        user_col = np.empty(n_jobs, dtype=np.int64)
        for uid in range(self.n_users):
            sl = slice(uid, n_jobs, self.n_users)
            rt = runtimes[sl]
            th = thinks[sl]
            # First submit after an initial think; then completion + think.
            deltas = th.copy()
            deltas[1:] += rt[:-1]
            submit[sl] = np.cumsum(deltas)
            user_col[sl] = uid
        return _replace_columns(
            stream,
            "+closed-loop",
            submit_time=submit,
            user_id=user_col,
            think_time=thinks,
        )
