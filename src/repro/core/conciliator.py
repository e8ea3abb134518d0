"""Conciliator interface and run helpers.

A **conciliator** (Section 1.2) keeps consensus's termination and validity
but weakens agreement to *probabilistic agreement*: for some fixed
``delta > 0`` and any adversary strategy, all return values are equal with
probability at least ``delta``.

Implementations expose two layers:

- :meth:`Conciliator.persona_program` — the real protocol, operating on
  :class:`~repro.core.persona.Persona` bundles and returning the surviving
  persona.  Algorithm 3 embeds inner conciliators at this layer so coin bits
  travel with values.
- :meth:`Conciliator.program` — the public entry point used as a process
  program: reads ``ctx.input_value``, runs the persona program, returns the
  bare value.

Conciliators also record, for experiment E1/E3, the persona each process
holds after each round (*local* bookkeeping — no shared-memory operations,
hence free in the step measure and invisible to the protocol itself).
Each process appends its rounds, in order, to a list of its own; the
per-round views (:attr:`Conciliator._after_round`, the survivor counts)
are derived from those lists when they are read.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Set

from repro.core.persona import Persona
from repro.runtime.operations import Operation
from repro.runtime.process import ProcessContext
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import Schedule
from repro.runtime.simulator import run_programs

__all__ = ["Conciliator", "run_conciliator"]


class Conciliator:
    """Base class for conciliator protocols."""

    name: str
    n: int

    def __init__(self, n: int, name: str):
        self.n = n
        self.name = name
        # _initial[pid] = the persona pid generated before round 1.
        self._initial: Dict[int, Persona] = {}
        # _held[pid][i] = persona held by pid after finishing round i.
        self._held: Dict[int, List[Persona]] = {}

    def persona_program(
        self, ctx: ProcessContext, input_value: Any
    ) -> Generator[Operation, Any, Persona]:
        """The protocol itself; yields operations, returns a persona."""
        raise NotImplementedError

    def program(
        self, ctx: ProcessContext
    ) -> Generator[Operation, Any, Any]:
        """Process program: run the conciliator on ``ctx.input_value``."""
        persona = yield from self.persona_program(ctx, ctx.input_value)
        return persona.value

    # ----- instrumentation -------------------------------------------------

    def _record_initial(
        self, pid: int, persona: Persona
    ) -> Callable[[Persona], None]:
        """Record the persona ``pid`` generated before round 1.

        Returns the bound ``append`` that records, one call per round and
        in round order, the persona ``pid`` holds after finishing it.
        """
        self._initial[pid] = persona
        held: List[Persona] = []
        self._held[pid] = held
        return held.append

    @property
    def _after_round(self) -> Dict[int, Dict[int, Persona]]:
        """``_after_round[i][pid]``: the persona ``pid`` held after
        finishing round ``i``, rounds in order."""
        after: Dict[int, Dict[int, Persona]] = {}
        for pid, held in self._held.items():
            for round_index, persona in enumerate(held):
                after.setdefault(round_index, {})[pid] = persona
        return after

    def personae_entering_round(self, round_index: int) -> List[Persona]:
        """Distinct personae held at the start of ``round_index`` (0-based)."""
        if round_index == 0:
            return list(set(self._initial.values()))
        return list(self._held_after(round_index - 1))

    def survivors_after_round(self, round_index: int) -> int:
        """Distinct personae held by processes after ``round_index``.

        This is the random variable ``Y_i`` of Lemmas 1 and 2, measured at
        each process's own round boundary.
        """
        return len(self._held_after(round_index))

    def survivor_series(self) -> List[int]:
        """``Y_i`` for every recorded round, in round order."""
        rounds = max(map(len, self._held.values()), default=0)
        return [self.survivors_after_round(index) for index in range(rounds)]

    def _held_after(self, round_index: int) -> Set[Persona]:
        """The distinct personae held after ``round_index``."""
        return {
            held[round_index] for held in self._held.values()
            if 0 <= round_index < len(held)
        }


def run_conciliator(
    conciliator: Conciliator,
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
    """Run one conciliator execution: every process proposes its input.

    ``hooks`` attaches :class:`~repro.runtime.hooks.StepHook` instances
    such as fault injectors and invariant monitors (see
    :mod:`repro.runtime.faults` and :mod:`repro.runtime.monitors`) to the
    underlying simulator; ``allow_partial``/``skip_guard`` support fault
    sweeps that deliberately crash or starve processes; ``metrics``
    optionally names a :class:`~repro.obs.metrics.MetricsRegistry` the run
    populates (surfaced on ``RunResult.metrics``).
    """
    programs = [conciliator.program] * len(inputs)
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
