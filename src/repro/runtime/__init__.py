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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.runtime.adaptive": (
        "AdaptiveAdversary", "AdversaryView", "PendingKindAdversary",
        "LongestFirstAdversary", "ShortestFirstAdversary",
        "RandomAdaptiveAdversary", "SiftKillerAdversary",
        "run_adaptive_programs",
    ),
    "repro.runtime.adversary": (
        "AdversarySpec", "LateAdversary", "NoisySchedulerAdversary",
        "make_adversary",
    ),
    "repro.runtime.checkpoint": ("CheckpointJournal",),
    "repro.runtime.faults": (
        "CrashFault", "FaultInjector", "FaultPlan", "RegisterFault",
        "StallFault",
    ),
    "repro.runtime.hooks": ("InterceptedResult", "StepHook"),
    "repro.runtime.monitors": (
        "AdoptCommitCoherenceMonitor", "InvariantMonitor",
        "InvariantViolation", "RegisterSemanticsMonitor", "ValidityMonitor",
        "WaitFreedomWatchdog",
    ),
    "repro.runtime.operations": (
        "Operation", "Read", "Write", "Update", "Scan", "MaxRead", "MaxWrite",
    ),
    "repro.runtime.parallel": (
        "ParallelConfig", "get_default_parallelism", "parallelism",
        "run_indexed_trials", "set_default_parallelism",
    ),
    "repro.runtime.process": ("Process", "ProcessContext"),
    "repro.runtime.results": ("RunResult",),
    "repro.runtime.rng": ("SeedTree",),
    "repro.runtime.scheduler": (
        "Schedule", "ExplicitSchedule", "RoundRobinSchedule",
        "ReversedRoundRobinSchedule", "RandomSchedule", "BlockSchedule",
        "FrontRunnerSchedule", "CrashSchedule", "LimitedSchedule",
    ),
    "repro.runtime.simulator": ("Simulator",),
    "repro.runtime.trace": ("TraceEvent", "TraceRecorder"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.runtime.adaptive import (
        AdaptiveAdversary as AdaptiveAdversary,
        AdversaryView as AdversaryView,
        LongestFirstAdversary as LongestFirstAdversary,
        PendingKindAdversary as PendingKindAdversary,
        RandomAdaptiveAdversary as RandomAdaptiveAdversary,
        ShortestFirstAdversary as ShortestFirstAdversary,
        SiftKillerAdversary as SiftKillerAdversary,
        run_adaptive_programs as run_adaptive_programs,
    )
    from repro.runtime.adversary import (
        AdversarySpec as AdversarySpec,
        LateAdversary as LateAdversary,
        NoisySchedulerAdversary as NoisySchedulerAdversary,
        make_adversary as make_adversary,
    )
    from repro.runtime.checkpoint import CheckpointJournal as CheckpointJournal
    from repro.runtime.faults import (
        CrashFault as CrashFault,
        FaultInjector as FaultInjector,
        FaultPlan as FaultPlan,
        RegisterFault as RegisterFault,
        StallFault as StallFault,
    )
    from repro.runtime.hooks import (
        InterceptedResult as InterceptedResult,
        StepHook as StepHook,
    )
    from repro.runtime.monitors import (
        AdoptCommitCoherenceMonitor as AdoptCommitCoherenceMonitor,
        InvariantMonitor as InvariantMonitor,
        InvariantViolation as InvariantViolation,
        RegisterSemanticsMonitor as RegisterSemanticsMonitor,
        ValidityMonitor as ValidityMonitor,
        WaitFreedomWatchdog as WaitFreedomWatchdog,
    )
    from repro.runtime.operations import (
        MaxRead as MaxRead,
        MaxWrite as MaxWrite,
        Operation as Operation,
        Read as Read,
        Scan as Scan,
        Update as Update,
        Write as Write,
    )
    from repro.runtime.parallel import (
        ParallelConfig as ParallelConfig,
        get_default_parallelism as get_default_parallelism,
        parallelism as parallelism,
        run_indexed_trials as run_indexed_trials,
        set_default_parallelism as set_default_parallelism,
    )
    from repro.runtime.process import (
        Process as Process,
        ProcessContext as ProcessContext,
    )
    from repro.runtime.results import RunResult as RunResult
    from repro.runtime.rng import SeedTree as SeedTree
    from repro.runtime.scheduler import (
        BlockSchedule as BlockSchedule,
        CrashSchedule as CrashSchedule,
        ExplicitSchedule as ExplicitSchedule,
        FrontRunnerSchedule as FrontRunnerSchedule,
        LimitedSchedule as LimitedSchedule,
        RandomSchedule as RandomSchedule,
        ReversedRoundRobinSchedule as ReversedRoundRobinSchedule,
        RoundRobinSchedule as RoundRobinSchedule,
        Schedule as Schedule,
    )
    from repro.runtime.simulator import Simulator as Simulator
    from repro.runtime.trace import (
        TraceEvent as TraceEvent,
        TraceRecorder as TraceRecorder,
    )
