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

from repro.adoptcommit import (
    ADOPT,
    COMMIT,
    AdoptCommitObject,
    AdoptCommitResult,
    BinaryAdoptCommit,
    CollectAdoptCommit,
    DomainEncoder,
    FlagAdoptCommit,
    IntEncoder,
    SnapshotAdoptCommit,
)
from repro.core import (
    ChainedConciliator,
    CILConciliator,
    CILEmbeddedConciliator,
    Conciliator,
    ConsensusProtocol,
    EmulatedSnapshotConciliator,
    Persona,
    SiftingConciliator,
    SnapshotConciliator,
    log_star,
    register_consensus,
    run_conciliator,
    run_consensus,
    sifting_rounds,
    snapshot_consensus,
    snapshot_rounds,
)
from repro.errors import (
    ConfigurationError,
    InvalidOperationError,
    ProtocolViolationError,
    ReproError,
    ScheduleExhaustedError,
    SimulationError,
    StepLimitExceededError,
)
from repro.memory import (
    AtomicRegister,
    BoundedMaxRegister,
    EmulatedSnapshot,
    MaxRegister,
    RegisterArray,
    SnapshotArray,
    SnapshotObject,
)
from repro.tas import SiftingTestAndSet
from repro.runtime import (
    BlockSchedule,
    CrashSchedule,
    ExplicitSchedule,
    FrontRunnerSchedule,
    Process,
    ProcessContext,
    RandomSchedule,
    Read,
    ReversedRoundRobinSchedule,
    RoundRobinSchedule,
    RunResult,
    Scan,
    Schedule,
    SeedTree,
    Simulator,
    Update,
    Write,
)
from repro.runtime.simulator import run_programs

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Persona",
    "Conciliator",
    "SnapshotConciliator",
    "SiftingConciliator",
    "CILConciliator",
    "CILEmbeddedConciliator",
    "ConsensusProtocol",
    "snapshot_consensus",
    "register_consensus",
    "run_conciliator",
    "run_consensus",
    "log_star",
    "snapshot_rounds",
    "sifting_rounds",
    # adopt-commit
    "ADOPT",
    "COMMIT",
    "AdoptCommitObject",
    "AdoptCommitResult",
    "BinaryAdoptCommit",
    "FlagAdoptCommit",
    "SnapshotAdoptCommit",
    "CollectAdoptCommit",
    "IntEncoder",
    "DomainEncoder",
    # memory
    "AtomicRegister",
    "SnapshotObject",
    "MaxRegister",
    "BoundedMaxRegister",
    "EmulatedSnapshot",
    "RegisterArray",
    "SnapshotArray",
    # extensions
    "EmulatedSnapshotConciliator",
    "SiftingTestAndSet",
    "ChainedConciliator",
    # runtime
    "SeedTree",
    "Schedule",
    "ExplicitSchedule",
    "RoundRobinSchedule",
    "ReversedRoundRobinSchedule",
    "RandomSchedule",
    "BlockSchedule",
    "FrontRunnerSchedule",
    "CrashSchedule",
    "Simulator",
    "Process",
    "ProcessContext",
    "RunResult",
    "Read",
    "Write",
    "Update",
    "Scan",
    "run_programs",
    # errors
    "ReproError",
    "SimulationError",
    "ScheduleExhaustedError",
    "StepLimitExceededError",
    "ProtocolViolationError",
    "InvalidOperationError",
    "ConfigurationError",
]
