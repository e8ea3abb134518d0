"""Consensus from alternating conciliators and adopt-commit objects.

The framework of [5], restated in Section 1.2: each phase runs a conciliator
(which *creates* agreement with constant probability) followed by an
adopt-commit object (which *detects* it).  A process that sees
``(commit, v)`` decides ``v``; otherwise it carries the adopted value into
the next phase.

Why it is safe: coherence means a committed value is the value everyone
leaves that adopt-commit with, so the next conciliator sees identical
inputs, validity forces it to output that value, and convergence makes the
next adopt-commit commit it for everyone.  Why it is fast: each phase agrees
with probability at least ``delta = 1 - eps``, independently of the past, so
the number of phases is geometric with constant mean and the expected cost
per process is O(conciliator + adopt-commit).

Instantiations:

- :func:`snapshot_consensus` — Corollary 1: Algorithm 1 (eps = 1/2) with the
  O(1) snapshot adopt-commit; ``O(log* n)`` expected individual steps, any
  input domain.
- :func:`register_consensus` — Corollaries 2/3: Algorithm 2 (or Algorithm 3
  with ``linear_total_work=True``) with the flag adopt-commit over a known
  m-value domain; ``O(log log n + log m)`` expected individual steps (the
  paper's [9] object would shave a ``log log m`` factor off the second
  term).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Hashable, Optional, Sequence, Tuple

from repro.adoptcommit.base import AdoptCommitObject
from repro.adoptcommit.encoders import DomainEncoder
from repro.adoptcommit.flag_ac import FlagAdoptCommit
from repro.adoptcommit.snapshot_ac import SnapshotAdoptCommit
from repro.core.cil_embedded import CILEmbeddedConciliator
from repro.core.conciliator import Conciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.errors import ConfigurationError
from repro.runtime.operations import Operation
from repro.runtime.process import ProcessContext
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import Schedule
from repro.runtime.simulator import run_programs

__all__ = [
    "ConsensusProtocol",
    "snapshot_consensus",
    "register_consensus",
    "run_consensus",
]

ConciliatorFactory = Callable[[int, int], Conciliator]
AdoptCommitFactory = Callable[[int, int], AdoptCommitObject]


class ConsensusProtocol:
    """Wait-free randomized consensus for ``n`` processes.

    Phases (a conciliator plus an adopt-commit object each) are materialized
    lazily, so the protocol is conceptually unbounded but only allocates
    what executions actually touch.

    Args:
        n: number of processes.
        conciliator_factory: ``(n, phase_index) -> Conciliator``.
        adopt_commit_factory: ``(n, phase_index) -> AdoptCommitObject``.
    """

    def __init__(
        self,
        n: int,
        conciliator_factory: ConciliatorFactory,
        adopt_commit_factory: AdoptCommitFactory,
        name: str = "consensus",
    ):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.n = n
        self.name = name
        self._conciliator_factory = conciliator_factory
        self._adopt_commit_factory = adopt_commit_factory
        self._phases: Dict[int, Tuple[Conciliator, AdoptCommitObject]] = {}
        # pid -> number of phases that process executed (instrumentation).
        self.phases_used: Dict[int, int] = {}

    def phase(self, index: int) -> Tuple[Conciliator, AdoptCommitObject]:
        """The shared (conciliator, adopt-commit) pair for a phase."""
        if index not in self._phases:
            self._phases[index] = (
                self._conciliator_factory(self.n, index),
                self._adopt_commit_factory(self.n, index),
            )
        return self._phases[index]

    @property
    def phases_allocated(self) -> int:
        """How many phases any execution has touched so far."""
        return len(self._phases)

    def program(self, ctx: ProcessContext) -> Generator[Operation, Any, Any]:
        """Process program: decide on a value equal to some input."""
        decision = yield from self.decide_program(ctx, ctx.input_value)
        return decision

    def decide_program(
        self, ctx: ProcessContext, value: Any
    ) -> Generator[Operation, Any, Any]:
        """Run consensus as a sub-program with an explicit proposal.

        Used by protocols that embed consensus (e.g. the test-and-set
        backup), where the proposal is computed rather than taken from
        ``ctx.input_value``.
        """
        phase_index = 0
        while True:
            conciliator, adopt_commit = self.phase(phase_index)
            persona = yield from conciliator.persona_program(ctx, value)
            value = persona.value
            result = yield from adopt_commit.invoke(ctx, value)
            value = result.value
            phase_index += 1
            if result.committed:
                self.phases_used[ctx.pid] = phase_index
                return value


def snapshot_consensus(
    n: int,
    *,
    epsilon: float = 0.5,
    use_max_registers: bool = False,
    name: str = "snapshot-consensus",
) -> ConsensusProtocol:
    """Corollary 1: ``O(log* n)`` expected individual steps, snapshot model."""
    return ConsensusProtocol(
        n,
        conciliator_factory=lambda count, phase: SnapshotConciliator(
            count,
            epsilon=epsilon,
            use_max_registers=use_max_registers,
            name=f"{name}.conciliator[{phase}]",
        ),
        adopt_commit_factory=lambda count, phase: SnapshotAdoptCommit(
            count, name=f"{name}.ac[{phase}]"
        ),
        name=name,
    )


def register_consensus(
    n: int,
    value_domain: Sequence[Hashable],
    *,
    epsilon: float = 0.5,
    linear_total_work: bool = False,
    name: str = "register-consensus",
) -> ConsensusProtocol:
    """Corollaries 2 and 3: register-model consensus for m known values.

    With ``linear_total_work=True`` the conciliator is Algorithm 3
    (Corollary 3: O(n) expected total steps); otherwise plain Algorithm 2
    (Corollary 2).
    """
    domain = list(value_domain)

    def make_conciliator(count: int, phase: int) -> Conciliator:
        if linear_total_work:
            return CILEmbeddedConciliator(
                count, name=f"{name}.conciliator[{phase}]"
            )
        return SiftingConciliator(
            count, epsilon=epsilon, name=f"{name}.conciliator[{phase}]"
        )

    return ConsensusProtocol(
        n,
        conciliator_factory=make_conciliator,
        adopt_commit_factory=lambda count, phase: FlagAdoptCommit(
            count, DomainEncoder(domain), name=f"{name}.ac[{phase}]"
        ),
        name=name,
    )


def run_consensus(
    protocol: ConsensusProtocol,
    inputs: Sequence[Any],
    schedule: Schedule,
    seeds: SeedTree,
    *,
    record_trace: bool = False,
    step_limit: int = 50_000_000,
    hooks: Sequence[Any] = (),
    allow_partial: bool = False,
    skip_guard: Optional[int] = None,
    metrics: Optional[Any] = None,
) -> RunResult:
    """Run one consensus execution with the given input assignment.

    ``hooks`` attaches :class:`~repro.runtime.hooks.StepHook` instances
    such as fault injectors and invariant monitors (see
    :mod:`repro.runtime.faults` and :mod:`repro.runtime.monitors`);
    ``allow_partial``/``skip_guard`` support fault sweeps that crash or
    starve processes on purpose.  ``metrics`` attaches a
    :class:`~repro.obs.metrics.MetricsRegistry` for the run.
    """
    if len(inputs) != protocol.n:
        raise ConfigurationError(
            f"{len(inputs)} inputs supplied for n={protocol.n} processes"
        )
    programs = [protocol.program] * protocol.n
    return run_programs(
        programs,
        schedule,
        seeds,
        inputs=list(inputs),
        record_trace=record_trace,
        step_limit=step_limit,
        hooks=hooks,
        allow_partial=allow_partial,
        skip_guard=skip_guard,
        metrics=metrics,
    )
