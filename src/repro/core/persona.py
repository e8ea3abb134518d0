"""Personae: input values bundled with pre-flipped randomness.

The central trick of the paper (Section 1, "personae") is that against an
*oblivious* adversary, a process can generate every coin its value will ever
need **up front**, attach them to the value, and let the bundle propagate as
other processes adopt the value.  All copies of a persona then behave
identically in every round, so the number of *distinct surviving personae*
— not the number of processes — becomes the measure of progress.

A :class:`Persona` is immutable and hashable, so survivor counting is just
``len(set(...))``.  The originating process id is included, as in Section 3:
"the id value is not used by the algorithm and can be omitted in an actual
implementation", but including it guarantees that personae generated
independently are distinct even if their coins collide, which keeps the
analysis (and our survivor counting) clean.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, fields
from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Persona",
    "check_priority_range",
    "check_write_probabilities",
    "highest_priority",
]


@dataclass(frozen=True, slots=True)
class Persona:
    """An input value plus all randomness it will ever use.

    Slotted: a trial builds one per process, and the factories below set
    the slots directly once their arguments are checked.

    Attributes:
        value: the input value being proposed.  Must be hashable.
        origin: pid of the process that created the persona.
        priorities: per-round random priorities (Algorithm 1).  Empty for
            personae that never enter the snapshot conciliator.
        write_bits: per-round chooseWrite coin flips (Algorithm 2).  Empty
            for personae that never enter the sifting conciliator.
        coin: the combine-stage shared-coin bit (Algorithm 3).
    """

    value: Any
    origin: int
    priorities: Tuple[int, ...] = ()
    write_bits: Tuple[bool, ...] = ()
    coin: int = 0

    def __post_init__(self) -> None:
        if self.coin not in (0, 1):
            raise ConfigurationError(f"persona coin must be 0 or 1, got {self.coin}")

    @staticmethod
    def for_snapshot(
        value: Any,
        origin: int,
        rng: random.Random,
        rounds: int,
        priority_range: int,
    ) -> "Persona":
        """Create a persona for Algorithm 1.

        Draws ``rounds`` independent priorities uniformly from
        ``{1, ..., priority_range}`` (the paper's range ``ceil(R n^2 / eps)``
        makes the probability of any duplicate at most eps/2).
        """
        if rounds < 1:
            raise ConfigurationError(f"snapshot persona needs rounds >= 1, got {rounds}")
        check_priority_range(priority_range)
        return _snapshot_persona(value, origin, rng, rounds, priority_range)

    @staticmethod
    def for_sifting(
        value: Any,
        origin: int,
        rng: random.Random,
        write_probabilities: Sequence[float],
    ) -> "Persona":
        """Create a persona for Algorithm 2.

        ``write_probabilities[i]`` is the probability ``p_{i+1}`` that the
        persona writes (rather than reads) in round ``i+1``; the chooseWrite
        bit for each round is flipped now and frozen into the persona.
        """
        if not write_probabilities:
            raise ConfigurationError("sifting persona needs at least one round")
        check_write_probabilities(write_probabilities)
        return _sifting_persona(value, origin, rng, write_probabilities)

    def priority(self, round_index: int) -> int:
        """This persona's priority in round ``round_index`` (0-based)."""
        return self.priorities[round_index]

    def chooses_write(self, round_index: int) -> bool:
        """True if this persona writes in sifting round ``round_index``."""
        return self.write_bits[round_index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Persona(value={self.value!r}, origin={self.origin})"


_set_value, _set_origin, _set_priorities, _set_write_bits, _set_coin = (
    getattr(Persona, field.name).__set__ for field in fields(Persona)
)


def _assembled(
    value: Any, origin: int, priorities: Tuple[int, ...],
    write_bits: Tuple[bool, ...], coin: int,
) -> Persona:
    """A persona whose fields are already known valid, its slots set
    through their descriptors instead of the frozen ``__init__`` (one
    ``object.__setattr__`` per field) and its coin check."""
    persona = object.__new__(Persona)
    _set_value(persona, value)
    _set_origin(persona, origin)
    _set_priorities(persona, priorities)
    _set_write_bits(persona, write_bits)
    _set_coin(persona, coin)
    return persona


def _snapshot_persona(
    value: Any, origin: int, rng: random.Random, rounds: int,
    priority_range: int,
) -> Persona:
    """:meth:`Persona.for_snapshot` for a conciliator that checked
    ``rounds`` and ``priority_range`` when it was built."""
    # ``rng.randint(1, priority_range)``'s own rejection loop, inlined:
    # draw ``priority_range.bit_length()`` bits until the value is below
    # the range.  The stream is bit-identical to ``randint`` (a unit test
    # pins it).
    getrandbits = rng.getrandbits
    bits = operator.index(priority_range).bit_length()
    priorities = []
    for _ in range(rounds):
        draw = getrandbits(bits)
        while draw >= priority_range:
            draw = getrandbits(bits)
        priorities.append(draw + 1)
    return _assembled(value, origin, tuple(priorities), (), _draw_coin(rng))


def _sifting_persona(
    value: Any, origin: int, rng: random.Random,
    write_probabilities: Sequence[float],
) -> Persona:
    """:meth:`Persona.for_sifting` for a conciliator that checked its
    write probabilities when it was built."""
    draw = rng.random
    bits = tuple([draw() < p for p in write_probabilities])
    return _assembled(value, origin, (), bits, _draw_coin(rng))


def check_priority_range(priority_range: int) -> None:
    """Refuse a snapshot priority range below 1."""
    if priority_range < 1:
        raise ConfigurationError(
            f"priority_range must be >= 1, got {priority_range}"
        )


def _draw_coin(rng: random.Random) -> int:
    """``rng.randrange(2)``'s own rejection loop, inlined: draw two bits
    until the value is below 2.  Bit-identical to ``randrange(2)`` (a unit
    test pins it)."""
    getrandbits = rng.getrandbits
    coin = getrandbits(2)
    while coin >= 2:
        coin = getrandbits(2)
    return coin


def check_write_probabilities(write_probabilities: Iterable[float]) -> None:
    """Refuse a sifting write probability outside ``[0, 1]`` (or NaN)."""
    for probability in write_probabilities:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"write probability {probability} outside [0, 1]"
            )


def highest_priority(view: Iterable[Optional[Persona]], round_index: int) -> Persona:
    """The persona Algorithm 1 adopts from a scanned ``view``.

    The highest round-``round_index`` priority wins.  Ties on priority are
    the duplicate event D, which the analysis charges as failure; the
    protocol still needs a deterministic rule shared by all processes, so
    they break by origin id.  ``None`` entries (empty components) are
    skipped.  Returns the very object
    ``max(candidates, key=lambda e: (e.priority(round_index), e.origin))``
    would — the first maximal entry in view order — in one pass that builds
    no keys and compares origins only on a priority tie.
    """
    best: Optional[Persona] = None
    top = 0
    for entry in view:
        if entry is None:
            continue
        priority = entry.priorities[round_index]
        if best is None or priority > top or (
            priority == top and entry.origin > best.origin
        ):
            best = entry
            top = priority
    if best is None:
        raise ValueError("highest_priority() of a view with no persona")
    return best
