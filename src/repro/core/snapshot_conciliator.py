"""Algorithm 1: the priority-based snapshot conciliator.

Each process bundles its input with a vector of ``R`` random priorities (one
per round) into a persona.  In round ``i`` it updates its component of the
round's snapshot object with its current persona, scans, and adopts the
persona with the highest round-``i`` priority among those it sees.

Lemma 1 shows each round shrinks the expected number of excess personae
``X`` to at most ``min(ln(X+1), X/2)`` — the left-to-right-maxima argument —
so ``R = log* n + ceil(log2(1/eps)) + 1`` rounds reach a unique survivor
with probability at least ``1 - eps`` (Theorem 1).  Every process takes
exactly ``2R`` steps (one update + one scan per round).

Footnote 1 of the paper notes that max registers suffice, because only the
maximum-priority persona in the view matters; ``use_max_registers=True``
selects that variant (one MaxWrite + one MaxRead per round, same step
count), and experiment E11 confirms the two variants behave alike.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.conciliator import Conciliator
from repro.core.persona import (
    Persona,
    _snapshot_persona,
    check_priority_range,
    highest_priority,
)
from repro.core.rounds import snapshot_priority_range, snapshot_rounds
from repro.errors import ConfigurationError
from repro.memory.max_register import MaxRegister
from repro.memory.register_array import SnapshotArray
from repro.runtime.operations import MaxRead, MaxWrite, Operation, Scan, Update
from repro.runtime.process import ProcessContext

__all__ = ["SnapshotConciliator"]


class SnapshotConciliator(Conciliator):
    """Algorithm 1 with agreement probability ``1 - epsilon``.

    Args:
        n: number of processes.
        epsilon: target disagreement probability (default 1/2, the setting
            used inside consensus in Corollary 1).
        rounds: override the round count ``R`` (for decay experiments that
            deliberately run extra or fewer rounds).
        priority_range: override the priority range (for the E9 ablation on
            duplicate priorities).
        use_max_registers: run the footnote-1 variant on max registers.
    """

    def __init__(
        self,
        n: int,
        epsilon: float = 0.5,
        *,
        rounds: Optional[int] = None,
        priority_range: Optional[int] = None,
        use_max_registers: bool = False,
        name: str = "snapshot-conciliator",
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
        self.use_max_registers = use_max_registers
        if use_max_registers:
            self._max_registers: List[MaxRegister] = [
                MaxRegister(f"{name}.M[{index}]") for index in range(self.rounds)
            ]
            self._arrays: Optional[SnapshotArray] = None
        else:
            self._arrays = SnapshotArray(n, f"{name}.A")
            self._max_registers = []
        self._scans: Dict[int, Scan] = {}

    def step_bound(self) -> int:
        """Exact individual step complexity: 2 per round."""
        return 2 * self.rounds

    def make_persona(self, ctx: ProcessContext, input_value: Any) -> Persona:
        """Draw the persona (priority vector + combine coin) for a process.

        ``rounds`` and ``priority_range`` were checked when the conciliator
        was built, so the persona is not checked again.
        """
        return _snapshot_persona(
            input_value, ctx.pid, ctx.rng, self.rounds, self.priority_range
        )

    def duplicate_priority_rounds(self) -> int:
        """Rounds in which two distinct entering personae shared a priority.

        This is the event D of Section 2; the paper's priority range is
        tuned so Pr[D] <= eps/2.  Used by the E9 ablation.
        """
        duplicates = 0
        for round_index in range(self.rounds):
            entering = self.personae_entering_round(round_index)
            priorities = [persona.priority(round_index) for persona in entering]
            if len(set(priorities)) != len(priorities):
                duplicates += 1
        return duplicates

    def persona_program(
        self, ctx: ProcessContext, input_value: Any
    ) -> Generator[Operation, Any, Persona]:
        persona = self.make_persona(ctx, input_value)
        record_round = self._record_initial(ctx.pid, persona)
        if self.use_max_registers:
            for round_index in range(self.rounds):
                persona = yield from self._max_register_round(round_index, persona)
                record_round(persona)
            return persona
        # One round: update my component, scan, adopt the view's
        # highest-priority persona.  Every process scans round i with the
        # same (frozen) request, built when round i is first reached.
        arrays = self._arrays
        assert arrays is not None
        scans = self._scans
        for round_index in range(self.rounds):
            scan = scans.get(round_index)
            if scan is None:
                scan = scans[round_index] = Scan(arrays[round_index])
            yield Update(scan.obj, persona)
            view = yield scan
            persona = highest_priority(view, round_index)
            record_round(persona)
        return persona

    def _max_register_round(
        self, round_index: int, persona: Persona
    ) -> Generator[Operation, Any, Persona]:
        register = self._max_registers[round_index]
        # Keys order first by round priority, then by origin (deterministic
        # tiebreak); the persona rides along and is never itself compared,
        # because equal (priority, origin) implies the personae are equal.
        yield MaxWrite(
            register, (persona.priority(round_index), persona.origin, persona)
        )
        top = yield MaxRead(register)
        return top[2]
