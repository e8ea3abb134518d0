"""Asynchronous shared-memory runtime with an oblivious adversary.

This package is the substrate on which every protocol in the library runs.
It implements the model of Section 1.1 of the paper:

- *n* processes communicate only through shared-memory objects
  (:mod:`repro.memory`);
- an **oblivious adversary** fixes a :class:`~repro.runtime.scheduler.Schedule`
  — a sequence of process ids — before the execution starts and independently
  of any coin flips made by the processes;
- at each step the next process in the schedule executes exactly one atomic
  operation of its choosing; once a process has finished, its remaining slots
  become free no-ops that are not charged to the step complexity.

Python's GIL makes true concurrent shared-memory steps impossible (and real
threads would yield an OS-controlled, effectively *adaptive* schedule), so the
model is executed by a deterministic discrete-event simulator
(:class:`~repro.runtime.simulator.Simulator`).  Because the paper's model is
itself a sequence of atomic operations chosen by a schedule, this simulation
is exact, not an approximation: step counts are the very quantity the paper's
theorems bound.
"""

from repro.runtime.adaptive import (
    AdaptiveAdversary,
    AdversaryView,
    LongestFirstAdversary,
    PendingKindAdversary,
    RandomAdaptiveAdversary,
    ShortestFirstAdversary,
    SiftKillerAdversary,
    run_adaptive_programs,
)
from repro.runtime.adversary import (
    AdversarySpec,
    LateAdversary,
    NoisySchedulerAdversary,
    make_adversary,
)
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    InterceptedResult,
    RegisterFault,
    StallFault,
    StepHook,
)
from repro.runtime.monitors import (
    AdoptCommitCoherenceMonitor,
    InvariantMonitor,
    InvariantViolation,
    RegisterSemanticsMonitor,
    ValidityMonitor,
    WaitFreedomWatchdog,
)
from repro.runtime.operations import (
    MaxRead,
    MaxWrite,
    Operation,
    Read,
    Scan,
    Update,
    Write,
)
from repro.runtime.parallel import (
    ParallelConfig,
    get_default_parallelism,
    parallelism,
    run_indexed_trials,
    set_default_parallelism,
)
from repro.runtime.process import Process, ProcessContext
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import (
    BlockSchedule,
    CrashSchedule,
    ExplicitSchedule,
    FrontRunnerSchedule,
    LimitedSchedule,
    RandomSchedule,
    ReversedRoundRobinSchedule,
    RoundRobinSchedule,
    Schedule,
)
from repro.runtime.simulator import Simulator
from repro.runtime.trace import TraceEvent, TraceRecorder

__all__ = [
    "Operation",
    "Read",
    "Write",
    "Update",
    "Scan",
    "MaxRead",
    "MaxWrite",
    "Process",
    "ProcessContext",
    "RunResult",
    "SeedTree",
    "Schedule",
    "ExplicitSchedule",
    "RoundRobinSchedule",
    "ReversedRoundRobinSchedule",
    "RandomSchedule",
    "BlockSchedule",
    "FrontRunnerSchedule",
    "CrashSchedule",
    "LimitedSchedule",
    "Simulator",
    "ParallelConfig",
    "get_default_parallelism",
    "parallelism",
    "run_indexed_trials",
    "set_default_parallelism",
    "TraceEvent",
    "TraceRecorder",
    "CheckpointJournal",
    "CrashFault",
    "FaultInjector",
    "FaultPlan",
    "InterceptedResult",
    "RegisterFault",
    "StallFault",
    "StepHook",
    "AdoptCommitCoherenceMonitor",
    "InvariantMonitor",
    "InvariantViolation",
    "RegisterSemanticsMonitor",
    "ValidityMonitor",
    "WaitFreedomWatchdog",
    "AdaptiveAdversary",
    "AdversaryView",
    "PendingKindAdversary",
    "LongestFirstAdversary",
    "ShortestFirstAdversary",
    "RandomAdaptiveAdversary",
    "SiftKillerAdversary",
    "run_adaptive_programs",
    "AdversarySpec",
    "LateAdversary",
    "NoisySchedulerAdversary",
    "make_adversary",
]
