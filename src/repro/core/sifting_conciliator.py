"""Algorithm 2: the sifting conciliator on multi-writer registers.

One register ``r_i`` per asynchronous round.  In round ``i`` each persona
either *writes* itself to ``r_i`` (with probability ``p_i``, a coin
pre-flipped into the persona's ``chooseWrite`` vector) or *reads* ``r_i``
and adopts whatever persona it sees (keeping its own only if the register is
still empty).  Exactly one operation per round, so individual step
complexity equals the round count.

Lemma 2 bounds the per-round survivor contraction for any ``p_i``; the tuned
schedule (:func:`repro.core.probabilities.sift_p`) contracts ``X`` to
``~2 sqrt(X)`` per round for the first ``ceil(log2 log2 n)`` rounds —
bringing the expected survivors under 8 — and then switches to ``p = 1/2``,
shrinking expectations by ``3/4`` per round (Lemma 4).  Total rounds
``R = ceil(log2 log2 n) + ceil(log_{4/3}(8/eps))`` give agreement with
probability ``1 - eps`` (Theorem 2).
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.conciliator import Conciliator
from repro.core.persona import (
    Persona,
    _sifting_persona,
    check_write_probabilities,
)
from repro.core.probabilities import sift_p_schedule
from repro.core.rounds import sifting_rounds
from repro.errors import ConfigurationError
from repro.memory.register_array import RegisterArray
from repro.runtime.operations import Operation, Read, Write
from repro.runtime.process import ProcessContext

__all__ = ["SiftingConciliator"]

# A sweep or a service builds one conciliator per trial with the same
# parameters; the round count and the tuned write probabilities (always
# in [0, 1]) are computed once per ``(n, epsilon)`` and ``(n, rounds)``.
_rounds = functools.lru_cache(maxsize=256)(sifting_rounds)


@functools.lru_cache(maxsize=256)
def _p_schedule(n: int, rounds: int) -> Tuple[float, ...]:
    return tuple(sift_p_schedule(n, rounds))


class SiftingConciliator(Conciliator):
    """Algorithm 2 with agreement probability ``1 - epsilon``.

    Args:
        n: number of processes.
        epsilon: target disagreement probability.
        rounds: override the round count (decay experiments).
        p_schedule: override the per-round write probabilities (the E10
            ablation compares the tuned schedule, the paper's printed
            equation (3), and fixed ``p = 1/2``).
        anonymous: drop the originating id from personae, as Section 3
            notes a real implementation may ("the id value is not used by
            the algorithm"); saves log n register bits
            (see :mod:`repro.analysis.space`).  Survivor instrumentation
            then counts (value, coins) classes instead of origins.
    """

    def __init__(
        self,
        n: int,
        epsilon: float = 0.5,
        *,
        rounds: Optional[int] = None,
        p_schedule: Optional[Sequence[float]] = None,
        anonymous: bool = False,
        name: str = "sifting-conciliator",
    ):
        super().__init__(n, name)
        self.epsilon = epsilon
        self.rounds = rounds if rounds is not None else _rounds(n, epsilon)
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if p_schedule is None:
            self.p_schedule: List[float] = list(_p_schedule(n, self.rounds))
        else:
            if len(p_schedule) != self.rounds:
                raise ConfigurationError(
                    f"p_schedule has {len(p_schedule)} entries for "
                    f"{self.rounds} rounds"
                )
            self.p_schedule = list(p_schedule)
            check_write_probabilities(self.p_schedule)
        self.anonymous = anonymous
        self.registers = RegisterArray(f"{name}.r")
        self._reads: Dict[int, Read] = {}

    def step_bound(self) -> int:
        """Exact individual step complexity: 1 per round."""
        return self.rounds

    def make_persona(self, ctx: ProcessContext, input_value: Any) -> Persona:
        """Draw the persona (chooseWrite bits + combine coin).

        The write probabilities were checked when the conciliator was
        built, so the persona is not checked again.
        """
        origin = -1 if self.anonymous else ctx.pid
        return _sifting_persona(input_value, origin, ctx.rng, self.p_schedule)

    def persona_program(
        self, ctx: ProcessContext, input_value: Any
    ) -> Generator[Operation, Any, Persona]:
        persona = self.make_persona(ctx, input_value)
        record_round = self._record_initial(ctx.pid, persona)
        # Every process reads round i's register with the same (frozen)
        # request, built when round i is first reached.
        registers = self.registers
        reads = self._reads
        for round_index in range(self.rounds):
            read = reads.get(round_index)
            if read is None:
                read = reads[round_index] = Read(registers[round_index])
            if persona.write_bits[round_index]:
                yield Write(read.obj, persona)
            else:
                seen = yield read
                if seen is not None:
                    persona = seen
            record_round(persona)
        return persona
