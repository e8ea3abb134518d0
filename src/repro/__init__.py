"""repro — faster randomized consensus with an oblivious adversary.

A complete, executable reproduction of James Aspnes, *"Faster randomized
consensus with an oblivious adversary"* (PODC 2012): the snapshot-model
priority conciliator (Algorithm 1), the register-model sifting conciliator
(Algorithm 2), the linear-total-work CIL embedding (Algorithm 3), the
adopt-commit objects they compose with, and the consensus protocols of
Corollaries 1–3 — all running on a deterministic asynchronous shared-memory
simulator with genuinely oblivious adversary schedules.

Quickstart::

    from repro import (
        SeedTree, RandomSchedule, register_consensus, run_consensus,
    )

    n = 16
    seeds = SeedTree(2012)
    protocol = register_consensus(n, value_domain=range(4))
    schedule = RandomSchedule(n, seeds.child("schedule").seed)
    inputs = [pid % 4 for pid in range(n)]
    result = run_consensus(protocol, inputs, schedule, seeds)
    assert result.agreement and result.validity_holds(dict(enumerate(inputs)))
    print(result.summary())

See DESIGN.md for the architecture and EXPERIMENTS.md for the per-theorem
reproduction results.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.adoptcommit.base": (
        "ADOPT", "COMMIT", "AdoptCommitObject", "AdoptCommitResult",
    ),
    "repro.adoptcommit.collect_ac": ("CollectAdoptCommit",),
    "repro.adoptcommit.encoders": ("IntEncoder", "DomainEncoder"),
    "repro.adoptcommit.flag_ac": ("BinaryAdoptCommit", "FlagAdoptCommit"),
    "repro.adoptcommit.snapshot_ac": ("SnapshotAdoptCommit",),
    "repro.core.cil_embedded": ("CILEmbeddedConciliator",),
    "repro.core.compose": ("ChainedConciliator",),
    "repro.core.conciliator": ("Conciliator", "run_conciliator"),
    "repro.core.consensus": (
        "ConsensusProtocol", "snapshot_consensus", "register_consensus",
        "run_consensus",
    ),
    "repro.core.emulated_conciliator": ("EmulatedSnapshotConciliator",),
    "repro.core.persona": ("Persona",),
    "repro.core.rounds": ("log_star", "snapshot_rounds", "sifting_rounds"),
    "repro.core.sifting_conciliator": ("SiftingConciliator",),
    "repro.core.snapshot_conciliator": ("SnapshotConciliator",),
    "repro.errors": (
        "ReproError", "SimulationError", "ScheduleExhaustedError",
        "StepLimitExceededError", "ProtocolViolationError",
        "InvalidOperationError", "ConfigurationError",
    ),
    "repro.memory.bounded_max_register": ("BoundedMaxRegister",),
    "repro.memory.emulated_snapshot": ("EmulatedSnapshot",),
    "repro.memory.max_register": ("MaxRegister",),
    "repro.memory.register": ("AtomicRegister",),
    "repro.memory.register_array": ("RegisterArray", "SnapshotArray"),
    "repro.memory.snapshot": ("SnapshotObject",),
    "repro.runtime.operations": ("Read", "Write", "Update", "Scan"),
    "repro.runtime.process": ("Process", "ProcessContext"),
    "repro.runtime.results": ("RunResult",),
    "repro.runtime.rng": ("SeedTree",),
    "repro.runtime.scheduler": (
        "Schedule", "ExplicitSchedule", "RoundRobinSchedule",
        "ReversedRoundRobinSchedule", "RandomSchedule", "BlockSchedule",
        "FrontRunnerSchedule", "CrashSchedule",
    ),
    "repro.runtime.simulator": ("Simulator", "run_programs"),
    "repro.tas.sifting_tas": ("SiftingTestAndSet",),
}

__getattr__, __dir__, _exported = lazy_exports(__name__, _EXPORTS)
__all__ = ["__version__", *_exported]

if TYPE_CHECKING:
    from repro.adoptcommit.base import (
        ADOPT as ADOPT,
        COMMIT as COMMIT,
        AdoptCommitObject as AdoptCommitObject,
        AdoptCommitResult as AdoptCommitResult,
    )
    from repro.adoptcommit.collect_ac import (
        CollectAdoptCommit as CollectAdoptCommit,
    )
    from repro.adoptcommit.encoders import (
        DomainEncoder as DomainEncoder,
        IntEncoder as IntEncoder,
    )
    from repro.adoptcommit.flag_ac import (
        BinaryAdoptCommit as BinaryAdoptCommit,
        FlagAdoptCommit as FlagAdoptCommit,
    )
    from repro.adoptcommit.snapshot_ac import (
        SnapshotAdoptCommit as SnapshotAdoptCommit,
    )
    from repro.core.cil_embedded import (
        CILEmbeddedConciliator as CILEmbeddedConciliator,
    )
    from repro.core.compose import ChainedConciliator as ChainedConciliator
    from repro.core.conciliator import (
        Conciliator as Conciliator,
        run_conciliator as run_conciliator,
    )
    from repro.core.consensus import (
        ConsensusProtocol as ConsensusProtocol,
        register_consensus as register_consensus,
        run_consensus as run_consensus,
        snapshot_consensus as snapshot_consensus,
    )
    from repro.core.emulated_conciliator import (
        EmulatedSnapshotConciliator as EmulatedSnapshotConciliator,
    )
    from repro.core.persona import Persona as Persona
    from repro.core.rounds import (
        log_star as log_star,
        sifting_rounds as sifting_rounds,
        snapshot_rounds as snapshot_rounds,
    )
    from repro.core.sifting_conciliator import (
        SiftingConciliator as SiftingConciliator,
    )
    from repro.core.snapshot_conciliator import (
        SnapshotConciliator as SnapshotConciliator,
    )
    from repro.errors import (
        ConfigurationError as ConfigurationError,
        InvalidOperationError as InvalidOperationError,
        ProtocolViolationError as ProtocolViolationError,
        ReproError as ReproError,
        ScheduleExhaustedError as ScheduleExhaustedError,
        SimulationError as SimulationError,
        StepLimitExceededError as StepLimitExceededError,
    )
    from repro.memory.bounded_max_register import (
        BoundedMaxRegister as BoundedMaxRegister,
    )
    from repro.memory.emulated_snapshot import (
        EmulatedSnapshot as EmulatedSnapshot,
    )
    from repro.memory.max_register import MaxRegister as MaxRegister
    from repro.memory.register import AtomicRegister as AtomicRegister
    from repro.memory.register_array import (
        RegisterArray as RegisterArray,
        SnapshotArray as SnapshotArray,
    )
    from repro.memory.snapshot import SnapshotObject as SnapshotObject
    from repro.runtime.operations import (
        Read as Read,
        Scan as Scan,
        Update as Update,
        Write as Write,
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
        RandomSchedule as RandomSchedule,
        ReversedRoundRobinSchedule as ReversedRoundRobinSchedule,
        RoundRobinSchedule as RoundRobinSchedule,
        Schedule as Schedule,
    )
    from repro.runtime.simulator import (
        Simulator as Simulator,
        run_programs as run_programs,
    )
    from repro.tas.sifting_tas import SiftingTestAndSet as SiftingTestAndSet
