"""Bit-for-bit equivalence of the array-fast simulator loop vs the
per-event oracle loop in ``tests/oracles/scheduler.py``.

The fast :func:`~repro.scheduler.simulator.simulate` replaces per-job
allocator validation with one bulk call, batches arrival handling, skips
provably-empty policy calls, and preallocates its trace buffers — none of
which may change a single scheduled time.  Every check here asserts exact
array equality against ``oracles.scheduler.simulate_reference``.
"""

import numpy as np
import pytest

from oracles.scheduler import simulate_reference
from repro.scheduler import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
    LimitedAllocator,
    PowerOfTwoAllocator,
    UnlimitedAllocator,
    simulate,
)
from repro.workload.workload import MachineInfo, Workload

POLICIES = [FcfsScheduler, EasyBackfillScheduler, ConservativeBackfillScheduler]
SEEDS = list(range(5))


def load_controlled_workload(
    n,
    seed,
    *,
    machine_procs=128,
    load=0.8,
    mean_rt=300.0,
    bad_frac=0.02,
):
    """A stream whose offered load keeps backfilling queues bounded.

    Near-critical load matters for coverage (queues form, backfill
    happens) but conservative backfilling is quadratic in queue length,
    so the equivalence sweep pins load below saturation.
    """
    rng = np.random.default_rng(seed)
    run_time = rng.exponential(mean_rt, n)
    procs = 2 ** rng.integers(0, 6, n)
    rate = load * machine_procs / (mean_rt * procs.mean())
    submit = np.cumsum(rng.exponential(1.0 / rate, n))
    bad = rng.random(n) < bad_frac
    run_time = run_time.copy()
    run_time[bad] = -1.0  # unusable jobs both loops must skip identically
    machine = MachineInfo(name="eq", processors=machine_procs)
    return Workload.from_arrays(
        machine=machine,
        name="eq",
        job_id=np.arange(1, n + 1),
        submit_time=submit,
        run_time=run_time,
        used_procs=procs.astype(np.int64),
    )


def assert_schedules_identical(a, b):
    np.testing.assert_array_equal(a.submit, b.submit)
    np.testing.assert_array_equal(a.start, b.start)
    np.testing.assert_array_equal(a.runtime, b.runtime)
    np.testing.assert_array_equal(a.consumed, b.consumed)
    np.testing.assert_array_equal(a.queue_depth_times, b.queue_depth_times)
    np.testing.assert_array_equal(a.queue_depths, b.queue_depths)
    assert a.machine_procs == b.machine_procs
    assert a.scheduler_name == b.scheduler_name


class TestPolicySweep:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, policy, seed):
        w = load_controlled_workload(2500, seed)
        assert_schedules_identical(
            simulate(w, policy(), UnlimitedAllocator()),
            simulate_reference(w, policy(), UnlimitedAllocator()),
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_inflexible_allocators(self, policy):
        w = load_controlled_workload(1500, 7, machine_procs=256)
        for alloc in (PowerOfTwoAllocator(min_size=4), LimitedAllocator(block=8)):
            assert_schedules_identical(
                simulate(w, policy(), alloc),
                simulate_reference(w, policy(), alloc),
            )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_estimate_factor(self, policy):
        w = load_controlled_workload(1200, 3)
        assert_schedules_identical(
            simulate(w, policy(), UnlimitedAllocator(), estimate_factor=2.5),
            simulate_reference(w, policy(), UnlimitedAllocator(), estimate_factor=2.5),
        )


class TestEdgeShapes:
    def test_single_processor_machine(self):
        rng = np.random.default_rng(0)
        n = 400
        machine = MachineInfo(name="tiny", processors=1)
        w = Workload.from_arrays(
            machine=machine,
            name="tiny",
            job_id=np.arange(1, n + 1),
            submit_time=np.cumsum(rng.exponential(10.0, n)),
            run_time=rng.exponential(8.0, n),
            used_procs=np.ones(n, dtype=np.int64),
        )
        for policy in POLICIES:
            assert_schedules_identical(
                simulate(w, policy()), simulate_reference(w, policy())
            )

    def test_all_jobs_unusable(self):
        w = load_controlled_workload(300, 1, bad_frac=1.1)
        for policy in POLICIES:
            fast = simulate(w, policy(), UnlimitedAllocator())
            ref = simulate_reference(w, policy(), UnlimitedAllocator())
            assert fast.submit.size == 0
            assert_schedules_identical(fast, ref)

    def test_single_job(self):
        machine = MachineInfo(name="one", processors=4)
        w = Workload.from_arrays(
            machine=machine,
            name="one",
            job_id=np.array([1]),
            submit_time=np.array([0.0]),
            run_time=np.array([5.0]),
            used_procs=np.array([2], dtype=np.int64),
        )
        for policy in POLICIES:
            assert_schedules_identical(
                simulate(w, policy()), simulate_reference(w, policy())
            )

    def test_simultaneous_arrivals(self):
        # Arrival batching must produce the same trace when submits tie.
        machine = MachineInfo(name="ties", processors=8)
        n = 60
        w = Workload.from_arrays(
            machine=machine,
            name="ties",
            job_id=np.arange(1, n + 1),
            submit_time=np.repeat(np.arange(10.0), 6),
            run_time=np.full(n, 7.0),
            used_procs=np.full(n, 2, dtype=np.int64),
        )
        for policy in POLICIES:
            assert_schedules_identical(
                simulate(w, policy()), simulate_reference(w, policy())
            )


class TestDefaultAllocator:
    def test_flexibility_rank_drives_default(self):
        w = load_controlled_workload(500, 9)
        machine = MachineInfo(
            name="ranked", processors=128, allocation_flexibility=1
        )
        from repro.workload.fields import FIELD_NAMES

        ranked = Workload(
            {name: w.column(name) for name in FIELD_NAMES}, machine, name="ranked"
        )
        assert_schedules_identical(
            simulate(ranked, FcfsScheduler()),
            simulate_reference(ranked, FcfsScheduler()),
        )
