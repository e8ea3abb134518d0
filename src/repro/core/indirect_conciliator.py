"""Footnote 2 as an executable protocol: Algorithm 1 with indirection.

Footnote 2 observes that Algorithm 1's snapshot components need not carry
whole input values: "adding a layer of indirection by replacing each input
with the id of the process that holds it reduces the size of each snapshot
component to O(log n log* n) bits".  This variant implements exactly that:

- each process publishes its input **once** in a per-process announce
  register (1 step);
- rounds operate on *tokens* — personae whose value field is empty, so a
  component carries only the origin id and the R priorities (the
  O(log n log* n) bits of the footnote);
- after the last round, one read of ``announce[winner.origin]`` recovers
  the value (1 step).

The winning token always refers to an initialized announce register: a
token reaches any snapshot array only after its origin's update, which the
origin performs after its announce write, so the chain of adoptions
preserves the precedence.

Cost: ``2R + 2`` steps — two more than the plain variant, in exchange for
components whose width is independent of the input domain (measured in
experiment E17).
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
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.memory.register import AtomicRegister
from repro.memory.register_array import SnapshotArray
from repro.runtime.operations import Operation, Read, Scan, Update, Write
from repro.runtime.process import ProcessContext

__all__ = ["IndirectSnapshotConciliator"]


class IndirectSnapshotConciliator(Conciliator):
    """Algorithm 1 with footnote 2's value indirection."""

    def __init__(
        self,
        n: int,
        epsilon: float = 0.5,
        *,
        rounds: Optional[int] = None,
        priority_range: Optional[int] = None,
        name: str = "indirect-snapshot-conciliator",
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
        self.announce: List[AtomicRegister] = [
            AtomicRegister(f"{name}.announce[{pid}]") for pid in range(n)
        ]
        self._arrays = SnapshotArray(n, f"{name}.A")

    def step_bound(self) -> int:
        """Announce + 2 per round + final dereference."""
        return 2 * self.rounds + 2

    def persona_program(
        self, ctx: ProcessContext, input_value: Any
    ) -> Generator[Operation, Any, Persona]:
        full = _snapshot_persona(
            input_value, ctx.pid, ctx.rng, self.rounds, self.priority_range
        )
        # Publish the value once; everything after carries only the token.
        yield Write(self.announce[ctx.pid], input_value)
        token = Persona(
            value=None,
            origin=full.origin,
            priorities=full.priorities,
            coin=full.coin,
        )
        record_round = self._record_initial(ctx.pid, token)
        for round_index in range(self.rounds):
            array = self._arrays[round_index]
            yield Update(array, token)
            view = yield Scan(array)
            token = highest_priority(view, round_index)
            record_round(token)
        value = yield Read(self.announce[token.origin])
        if value is None:
            # Unreachable by the precedence argument in the module
            # docstring; a None here means the indirection chain broke.
            raise ProtocolViolationError(
                f"announce[{token.origin}] unset when dereferenced"
            )
        return Persona(
            value=value,
            origin=token.origin,
            priorities=token.priorities,
            coin=token.coin,
        )
