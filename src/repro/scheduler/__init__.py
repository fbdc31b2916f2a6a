"""Parallel-job scheduler simulator.

The paper's opening sentence — "a notion of the workload a system will
face is necessary in order to evaluate schedulers, processor allocators,
or make most other design decisions" — and its closing question — "the
effect of this absence [of self-similarity in the models] has not yet
been determined, and this needs to be done as well" — both call for a
scheduler substrate.  This package provides one, from scratch:

* an event-driven simulator (:mod:`repro.scheduler.simulator`);
* scheduling policies matching the paper's scheduler-flexibility ranks:
  FCFS (NQS-style queueing), EASY aggressive backfilling, and conservative
  backfilling (:mod:`repro.scheduler.policies`);
* processor allocators matching the allocation-flexibility ranks:
  power-of-two partitions, limited (block) allocation, and unlimited
  allocation (:mod:`repro.scheduler.allocator`);
* per-job and aggregate metrics (:mod:`repro.scheduler.metrics`);
* independence-preserving workload shuffles for the self-similarity
  impact experiment (:mod:`repro.scheduler.shuffle`).
"""

from repro.scheduler.allocator import (
    ProcessorAllocator,
    UnlimitedAllocator,
    PowerOfTwoAllocator,
    LimitedAllocator,
    allocator_for_flexibility,
)
from repro.scheduler.policies import (
    Scheduler,
    FcfsScheduler,
    EasyBackfillScheduler,
    ConservativeBackfillScheduler,
    scheduler_for_flexibility,
)
from repro.scheduler.simulator import ScheduleResult, simulate
from repro.scheduler.gang import GangScheduleResult, simulate_gang
from repro.scheduler.metrics import ScheduleMetrics, compute_metrics
from repro.scheduler.shuffle import shuffle_order, shuffle_interarrivals

__all__ = [
    "ProcessorAllocator",
    "UnlimitedAllocator",
    "PowerOfTwoAllocator",
    "LimitedAllocator",
    "allocator_for_flexibility",
    "Scheduler",
    "FcfsScheduler",
    "EasyBackfillScheduler",
    "ConservativeBackfillScheduler",
    "scheduler_for_flexibility",
    "ScheduleResult",
    "simulate",
    "GangScheduleResult",
    "simulate_gang",
    "ScheduleMetrics",
    "compute_metrics",
    "shuffle_order",
    "shuffle_interarrivals",
]
