"""Per-job scalar generation loops: the oracles for the bulk model samplers.

Each function takes a model instance, a job count and a generator, draws
through the model's own shared plan (``_draw_blocks`` / ``_prepare``) and
assembles the job stream one job at a time.  The production
``_generate_arrays`` of the same model must return bit-for-bit equal
columns for the same generator state.  :func:`generate_reference` runs a
model's full :meth:`~repro.models.base.WorkloadModel.generate` with its
columns produced by the matching oracle.
"""

from __future__ import annotations

import copy
import heapq
import math

import numpy as np

from repro.models import (
    Feitelson96Model,
    JannModel,
    LublinModel,
    UserSessionModel,
    WorkloadModel,
)
from repro.models.lublin import _OMEGA
from repro.util.rng import SeedLike
from repro.workload.workload import Workload

__all__ = [
    "lublin_arrays",
    "feitelson96_arrays",
    "jann_arrays",
    "usersession_arrays",
    "reference_arrays",
    "generate_reference",
]


# -- Lublin ------------------------------------------------------------------
def _lublin_sizes(model: LublinModel, n: int, b: dict) -> np.ndarray:
    sizes = np.empty(n, dtype=np.int64)
    if model.machine_procs < 2:
        sizes.fill(1)
        return sizes
    machine = float(model.machine_procs)
    par_u = b["par_u"].tolist()
    low_u = b["low_u"].tolist() if "low_u" in b else []
    u_low = b["u_low"].tolist() if "u_low" in b else []
    u_high = b["u_high"].tolist() if "u_high" in b else []
    snap_u = b["snap_u"].tolist() if "snap_u" in b else []
    arr1 = np.empty(1)
    k = 0
    for i in range(n):
        if par_u[i] < model.serial_prob:
            sizes[i] = 1
            continue
        u = u_low[k] if low_u[k] < model.size_low_prob else u_high[k]
        lg = float(round(u)) if snap_u[k] < model.pow2_prob else u
        k += 1
        # Size-1 ufunc call: bitwise identical to the vectorized 2**x.
        arr1[0] = lg
        size = float(np.round(2.0**arr1)[0])
        sizes[i] = int(min(max(size, 1.0), machine))
    return sizes


def _lublin_runtimes(
    model: LublinModel, n: int, b: dict, sizes: np.ndarray
) -> np.ndarray:
    out = np.empty(n)
    gamma_short = b["gamma_short"]
    gamma_long = b["gamma_long"]
    short_u = b["short_u"].tolist()
    denom = max(math.log2(model.machine_procs), 1.0)
    base = model.p_short_base
    slope = model.p_short_slope
    arr1 = np.empty(1)
    si = li = 0
    for i in range(n):
        arr1[0] = sizes[i]
        log2_size = float(np.log2(arr1)[0])
        p_short = min(max(base + slope * log2_size / denom, 0.05), 0.95)
        if short_u[i] < p_short:
            out[i] = gamma_short[si]
            si += 1
        else:
            out[i] = gamma_long[li]
            li += 1
    return out


def _lublin_arrivals(model: LublinModel, n: int, b: dict) -> np.ndarray:
    theta, amp, offset, n_fp, n_newton = model._cycle_plan()
    a = model.cycle_amplitude
    gaps = b["gaps"].tolist()
    submit = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = acc + gaps[i]
        t = acc
        for _ in range(n_fp):
            t = acc - (amp * math.sin(_OMEGA * t - theta) + offset)
        for _ in range(n_newton):
            f = t + (amp * math.sin(_OMEGA * t - theta) + offset) - acc
            w = 1.0 + a * math.cos(_OMEGA * t - theta)
            t = t - f / w
        submit[i] = t
    return submit - submit[0]


def lublin_arrays(model: LublinModel, n_jobs: int, rng: np.random.Generator) -> dict:
    """Lublin columns: per-job size snapping, hyper-gamma branch choice
    and scalar daily-cycle inversion."""
    b = model._draw_blocks(n_jobs, rng)
    sizes = _lublin_sizes(model, n_jobs, b)
    return {
        "submit_time": _lublin_arrivals(model, n_jobs, b),
        "run_time": _lublin_runtimes(model, n_jobs, b, sizes),
        "used_procs": sizes,
        "user_id": b["users"],
        "wait_time": np.zeros(n_jobs),
    }


# -- Feitelson 96 / 97 -------------------------------------------------------
def feitelson96_arrays(
    model: Feitelson96Model, n_jobs: int, rng: np.random.Generator
) -> dict:
    """Feitelson 96/97 columns: distinct jobs expanded into back-to-back
    repetitions one execution at a time."""
    b = model._draw_blocks(n_jobs, rng)
    gaps = b["gaps"].tolist()
    all_sizes = b["sizes"]
    all_reps = b["reps"].tolist()
    all_runtimes = b["runtimes"].tolist()
    all_users = b["users"]

    submit = np.empty(n_jobs)
    run_time = np.empty(n_jobs)
    procs = np.empty(n_jobs, dtype=np.int64)
    users = np.empty(n_jobs, dtype=np.int64)
    execs = np.empty(n_jobs, dtype=np.int64)

    filled = 0
    distinct = 0
    clock = 0.0
    while filled < n_jobs:
        clock = clock + gaps[distinct]
        size = int(all_sizes[distinct])
        runtime = all_runtimes[distinct]
        user = int(all_users[distinct])
        n_rep = all_reps[distinct]
        distinct += 1
        for k in range(min(n_rep, n_jobs - filled)):
            # Pure model: each repetition is resubmitted as soon as the
            # previous run ends, i.e. k full runtimes after the first.
            submit[filled] = clock + k * runtime
            run_time[filled] = runtime
            procs[filled] = size
            users[filled] = user
            execs[filled] = distinct
            filled += 1
    return {
        "submit_time": submit,
        "run_time": run_time,
        "used_procs": procs,
        "user_id": users,
        "executable_id": execs,
        "wait_time": np.zeros(n_jobs),
    }


# -- Jann ----------------------------------------------------------------------
def jann_arrays(model: JannModel, n_jobs: int, rng: np.random.Generator) -> dict:
    """Jann columns: each size range's renewal process accumulated gap by
    gap."""
    machine = model.machine_procs
    submit = np.empty(n_jobs)
    procs = np.empty(n_jobs, dtype=np.int64)
    run_time = np.empty(n_jobs)
    offset = 0
    for cnt, sizes, runtimes, gap_arr in model._draw_blocks(n_jobs, rng):
        gaps = gap_arr.tolist()
        first = gaps[0]
        acc = 0.0
        for j in range(cnt):
            # Renewal process anchored at the range's first arrival.
            acc = acc + gaps[j]
            submit[offset + j] = acc - first
            procs[offset + j] = min(max(int(sizes[j]), 1), machine)
            run_time[offset + j] = runtimes[j]
        offset += cnt
    return {
        "submit_time": submit,
        "run_time": run_time,
        "used_procs": procs,
        "wait_time": np.zeros(n_jobs),
    }


# -- user sessions -------------------------------------------------------------
def usersession_arrays(
    model: UserSessionModel, n_jobs: int, rng: np.random.Generator
) -> dict:
    """User-session columns: scalar per-user timelines merged through a
    heap keyed on (submit, user)."""
    profiles, users = model._prepare(n_jobs, rng)
    submit = np.empty(n_jobs)
    run_time = np.empty(n_jobs)
    procs = np.empty(n_jobs, dtype=np.int64)
    user_col = np.empty(n_jobs, dtype=np.int64)
    execs = np.empty(n_jobs, dtype=np.int64)
    think = np.empty(n_jobs)

    machine = model.machine_procs
    streams = []
    for u in users:
        streams.append(
            {
                "lengths": np.concatenate(u["lengths"]).tolist(),
                "runtimes": np.concatenate(u["runtimes"]).tolist(),
                "thinks": np.concatenate(u["thinks"]).tolist(),
                "idles": np.concatenate(u["idles"]).tolist(),
            }
        )

    # Rebuild each user's timeline with a scalar accumulation loop, then
    # k-way merge through a heap keyed on (submit, user) — ties resolve to
    # the smaller user id and then submission order, exactly like the
    # production lexsort.
    submits_scalar = []
    for s in streams:
        lengths = s["lengths"]
        runtimes = s["runtimes"]
        thinks = s["thinks"]
        idles = s["idles"]
        out = []
        pos = 0
        clock = 0.0
        for sess, length in enumerate(lengths):
            clock = clock + (idles[sess] if sess == 0 else 0.0)
            for k in range(length):
                if pos > 0:
                    prev_gap = idles[sess] if k == 0 else thinks[pos - 1]
                    # Grouped like the vectorized runtimes + gaps then
                    # cumsum, so the floating-point sums agree exactly.
                    clock = clock + (runtimes[pos - 1] + prev_gap)
                out.append(clock)
                pos += 1
        submits_scalar.append(out)

    heap = [(subs[0], uid, 0) for uid, subs in enumerate(submits_scalar)]
    heapq.heapify(heap)
    filled = 0
    while filled < n_jobs:
        when, uid, pos = heapq.heappop(heap)
        profile = profiles[uid]
        s = streams[uid]
        submit[filled] = when
        run_time[filled] = s["runtimes"][pos]
        procs[filled] = min(max(profile.size, 1), machine)
        user_col[filled] = profile.user_id
        execs[filled] = profile.executable_id
        think[filled] = s["thinks"][pos]
        filled += 1
        nxt = pos + 1
        subs = submits_scalar[uid]
        if nxt < len(subs):
            heapq.heappush(heap, (subs[nxt], uid, nxt))

    return {
        "submit_time": submit,
        "run_time": run_time,
        "used_procs": procs,
        "user_id": user_col,
        "executable_id": execs,
        "think_time": think,
        "wait_time": np.zeros(n_jobs),
    }


#: Oracle per model class; Feitelson 97 inherits the Feitelson 96 entry.
_ORACLES = (
    (LublinModel, lublin_arrays),
    (Feitelson96Model, feitelson96_arrays),
    (JannModel, jann_arrays),
    (UserSessionModel, usersession_arrays),
)


def reference_arrays(model: WorkloadModel, n_jobs: int, rng: np.random.Generator) -> dict:
    """Dispatch to the scalar oracle for *model*'s class."""
    for cls, oracle in _ORACLES:
        if isinstance(model, cls):
            return oracle(model, n_jobs, rng)
    raise TypeError(f"no scalar oracle for {type(model).__name__}")


def generate_reference(model: WorkloadModel, n_jobs: int, seed: SeedLike = None) -> Workload:
    """``model.generate(n_jobs, seed)`` with the columns produced by the
    scalar oracle (same validation, anchoring, sorting and naming)."""
    twin = copy.copy(model)
    twin._generate_arrays = lambda n, rng: reference_arrays(model, n, rng)
    return twin.generate(n_jobs, seed=seed)
