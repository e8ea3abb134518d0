"""Sifting test-and-set (Alistarh-Aspnes [1] structure).

One-shot test-and-set: every process calls ``program`` once and receives
0 (the unique winner) or 1 (a loser).  Two stages:

1. **Sifting filter.**  One register per round.  Each process pre-flips a
   coin per round with the tuned probabilities of Section 3: heads, it
   *writes* its presence and survives the round; tails, it *reads* — an
   empty register lets it survive, a non-empty one makes it **lose on the
   spot** (somebody who wrote is still in the game, so it is safe to leave).
   This is the original sift of [1]; Algorithm 2 of the paper is the same
   skeleton with "lose" replaced by "adopt the persona you saw".  Each round
   at least one process survives (writers survive; if nobody wrote, every
   reader saw empty), and the survivor count contracts like sqrt, leaving
   O(1) expected survivors after ceil(log log n) + O(1) rounds.

2. **Backup.**  Survivors decide a unique winner by running id-consensus
   (this library's register-model consensus on their own pids).  Validity
   confines the decision to survivors, and agreement crowns exactly one.
   [1] uses the RatRace adaptive TAS here; consensus is the substitution —
   asymptotically more expensive in the worst case (it carries an O(log n)
   adopt-commit), but only the expected-O(1) survivors ever pay for it.

Guarantees tested: exactly one winner in every execution, a solo runner
always wins, and everyone terminates in O(log log n) + backup steps.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from repro.core.consensus import ConsensusProtocol, register_consensus
from repro.core.persona import check_write_probabilities
from repro.core.probabilities import sift_p_schedule
from repro.core.rounds import sifting_rounds
from repro.errors import ConfigurationError
from repro.memory.register_array import RegisterArray
from repro.runtime.operations import Operation, Read, Write
from repro.runtime.process import ProcessContext

__all__ = ["SiftingTestAndSet", "WINNER", "LOSER"]

WINNER = 0
LOSER = 1


class SiftingTestAndSet:
    """One-shot test-and-set with an O(log log n) sifting filter."""

    def __init__(
        self,
        n: int,
        *,
        rounds: Optional[int] = None,
        p_schedule: Optional[Sequence[float]] = None,
        name: str = "sifting-tas",
    ):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.n = n
        self.name = name
        self.rounds = rounds if rounds is not None else sifting_rounds(n, 0.5)
        if p_schedule is None:
            self.p_schedule: List[float] = sift_p_schedule(n, self.rounds)
        else:
            if len(p_schedule) != self.rounds:
                raise ConfigurationError(
                    f"p_schedule has {len(p_schedule)} entries for "
                    f"{self.rounds} rounds"
                )
            self.p_schedule = list(p_schedule)
        check_write_probabilities(self.p_schedule)
        self.registers = RegisterArray(f"{name}.r")
        self.backup: ConsensusProtocol = register_consensus(
            n, value_domain=range(n), name=f"{name}.backup"
        )
        # Instrumentation (E14).
        self.filter_survivors = 0
        self.filter_losers = 0

    def filter_step_bound(self) -> int:
        """Steps a loser pays at most: one per round."""
        return self.rounds

    def program(self, ctx: ProcessContext) -> Generator[Operation, Any, int]:
        """Run test-and-set; returns WINNER (0) exactly once, else LOSER."""
        survived = yield from self._filter(ctx)
        if not survived:
            self.filter_losers += 1
            return LOSER
        self.filter_survivors += 1
        decided_pid = yield from self.backup.decide_program(ctx, ctx.pid)
        return WINNER if decided_pid == ctx.pid else LOSER

    def _filter(self, ctx: ProcessContext) -> Generator[Operation, Any, bool]:
        # Coins are pre-flipped; with no adopted values there is no persona
        # to carry them, but drawing them up front keeps the adversary
        # oblivious to them just the same.
        writes = [ctx.rng.random() < p for p in self.p_schedule]
        for round_index in range(self.rounds):
            register = self.registers[round_index]
            if writes[round_index]:
                yield Write(register, True)
            else:
                occupied = yield Read(register)
                if occupied is not None:
                    return False
        return True
