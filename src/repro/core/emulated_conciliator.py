"""Algorithm 1 over register-emulated snapshots (the cost of reality).

Identical logic to :class:`repro.core.snapshot_conciliator.SnapshotConciliator`
but every unit-cost snapshot operation is replaced by the multi-step
register emulation of :class:`repro.memory.emulated_snapshot.EmulatedSnapshot`.
The agreement behaviour is unchanged — the emulation is linearizable, and
the algorithm only depends on the view semantics — but each process now
pays ``O(n^2)`` register steps per round instead of 2, which is exactly the
gap the paper's "unit-cost snapshot model" abstracts away (and why the
multi-writer-register Algorithm 2 matters).  Experiment E15 quantifies it.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.core.conciliator import Conciliator
from repro.core.persona import (
    Persona,
    _snapshot_persona,
    check_priority_range,
    highest_priority,
)
from repro.core.rounds import snapshot_priority_range, snapshot_rounds
from repro.errors import ConfigurationError
from repro.memory.emulated_snapshot import EmulatedSnapshot
from repro.runtime.operations import Operation
from repro.runtime.process import ProcessContext

__all__ = ["EmulatedSnapshotConciliator"]


class EmulatedSnapshotConciliator(Conciliator):
    """Algorithm 1 paying real register costs for its snapshots."""

    def __init__(
        self,
        n: int,
        epsilon: float = 0.5,
        *,
        rounds: Optional[int] = None,
        priority_range: Optional[int] = None,
        name: str = "emulated-snapshot-conciliator",
    ):
        super().__init__(n, name)
        self.epsilon = epsilon
        self.rounds = rounds if rounds is not None else snapshot_rounds(n, epsilon)
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        self.priority_range = (
            priority_range
            if priority_range is not None
            else snapshot_priority_range(n, epsilon, self.rounds)
        )
        check_priority_range(self.priority_range)
        self.arrays: List[EmulatedSnapshot] = [
            EmulatedSnapshot(n, f"{name}.A[{index}]")
            for index in range(self.rounds)
        ]

    def step_bound(self) -> int:
        """Worst-case individual steps: O(n^2) per round."""
        per_round = (
            self.arrays[0].update_step_bound() + self.arrays[0].scan_step_bound()
        )
        return per_round * self.rounds

    def unit_cost_steps(self) -> int:
        """What the same algorithm costs in the unit-cost model (2/round)."""
        return 2 * self.rounds

    def persona_program(
        self, ctx: ProcessContext, input_value: Any
    ) -> Generator[Operation, Any, Persona]:
        persona = _snapshot_persona(
            input_value, ctx.pid, ctx.rng, self.rounds, self.priority_range
        )
        record_round = self._record_initial(ctx.pid, persona)
        for round_index in range(self.rounds):
            array = self.arrays[round_index]
            yield from array.update_program(ctx, persona)
            view = yield from array.scan_program(ctx)
            persona = highest_priority(view, round_index)
            record_round(persona)
        return persona
