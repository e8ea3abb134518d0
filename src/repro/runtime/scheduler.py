"""Oblivious-adversary schedules.

A schedule is a (possibly infinite) sequence of process ids, fixed before the
execution starts.  The oblivious adversary of the paper is exactly this: it
may know the protocol and ``n``, but not the algorithm's coin flips, so a
schedule here is constructed from its own random stream (or no randomness at
all) and never observes execution state.

The classes below form a small gallery of adversary strategies used by the
test suite and the benchmark harness:

- :class:`RoundRobinSchedule` — the fully synchronous adversary;
- :class:`ReversedRoundRobinSchedule` — round-robin with reversed id order,
  which stresses view-ordering assumptions;
- :class:`PermutedRoundRobinSchedule` — lockstep passes with a fresh uniform
  pid permutation per pass (the randomized adversary the vectorized backend
  can batch);
- :class:`InterleavedLockstepSchedule` — windows of two slots per process,
  uniformly shuffled, so two-operation rounds see partial views while
  staying lockstep;
- :class:`RandomSchedule` — uniform random interleaving;
- :class:`BlockSchedule` — each scheduled process runs a burst of consecutive
  steps, approximating "solo runs" that make early snapshots small;
- :class:`FrontRunnerSchedule` — one process runs far ahead before the rest
  start, the classic worst case for leader-style protocols;
- :class:`CrashSchedule` — wraps another schedule and stops scheduling a set
  of processes after a step budget, modelling crash failures (wait-freedom
  means the survivors must still terminate);
- :class:`StutterSchedule` — repeats each slot of a base schedule, creating
  long per-process runs with the base schedule's structure;
- :class:`ExplicitSchedule` — a literal list of pids, for targeted tests.

All schedules are reusable: ``iter(schedule)`` always restarts from the
beginning, so the same adversary can be replayed against different coin
flips.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.runtime.rng import SeedTree

__all__ = [
    "Schedule",
    "ExplicitSchedule",
    "RoundRobinSchedule",
    "ReversedRoundRobinSchedule",
    "PermutedRoundRobinSchedule",
    "InterleavedLockstepSchedule",
    "RandomSchedule",
    "BlockSchedule",
    "FrontRunnerSchedule",
    "CrashSchedule",
    "StutterSchedule",
]


def _check_n(n: int) -> int:
    if n < 1:
        raise ConfigurationError(f"a schedule needs at least one process, got n={n}")
    return n


class Schedule:
    """Base class: an iterable of process ids fixed in advance.

    Subclasses implement :meth:`__iter__`.  Iteration must be deterministic
    for a given constructed instance so that runs are reproducible and the
    schedule is genuinely oblivious (it cannot react to the execution).
    """

    n: int

    def __iter__(self) -> Iterator[int]:
        raise NotImplementedError

    def take(self, count: int) -> List[int]:
        """Return the first ``count`` slots, for inspection and tests."""
        return list(itertools.islice(iter(self), count))


class ExplicitSchedule(Schedule):
    """A finite schedule given as a literal sequence of pids.

    Explicit schedules are value objects: two instances with the same slots
    and the same ``n`` are equal and hash alike, and :meth:`to_json` /
    :meth:`from_json` round-trip them exactly.  The fuzzer's regression
    corpus relies on both properties for deduplication and replay.
    """

    _JSON_VERSION = 1

    def __init__(self, slots: Sequence[int], n: Optional[int] = None):
        self.slots = list(slots)
        inferred = (max(self.slots) + 1) if self.slots else 1
        self.n = _check_n(n if n is not None else inferred)
        for pid in self.slots:
            if not 0 <= pid < self.n:
                raise ConfigurationError(f"pid {pid} out of range for n={self.n}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitSchedule):
            return NotImplemented
        return self.n == other.n and self.slots == other.slots

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.slots)))

    def __repr__(self) -> str:
        return f"ExplicitSchedule({self.slots!r}, n={self.n})"

    def to_json(self) -> Dict[str, object]:
        """A plain-JSON description that :meth:`from_json` restores exactly."""
        return {
            "version": self._JSON_VERSION,
            "kind": "explicit",
            "n": self.n,
            "slots": list(self.slots),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ExplicitSchedule":
        """Rebuild a schedule from :meth:`to_json` output.

        Rejects unknown versions/kinds with
        :class:`~repro.errors.ConfigurationError` so a future format change
        cannot be silently misread as today's.
        """
        expect_versioned(
            data, "explicit schedule", cls._JSON_VERSION, key="version",
            kind="explicit",
        )
        return cls(list(data["slots"]), n=int(data["n"]))


class RoundRobinSchedule(Schedule):
    """Processes take turns in id order: 0, 1, ..., n-1, 0, 1, ...

    With ``rounds=None`` the schedule is infinite (the adversary never
    starves anyone); otherwise it ends after ``rounds`` full passes.
    """

    def __init__(self, n: int, rounds: Optional[int] = None):
        self.n = _check_n(n)
        self.rounds = rounds

    def __iter__(self) -> Iterator[int]:
        passes = itertools.count() if self.rounds is None else range(self.rounds)
        for _ in passes:
            for pid in range(self.n):
                yield pid


class ReversedRoundRobinSchedule(Schedule):
    """Round-robin in decreasing id order: n-1, ..., 1, 0, n-1, ..."""

    def __init__(self, n: int, rounds: Optional[int] = None):
        self.n = _check_n(n)
        self.rounds = rounds

    def __iter__(self) -> Iterator[int]:
        passes = itertools.count() if self.rounds is None else range(self.rounds)
        for _ in passes:
            for pid in range(self.n - 1, -1, -1):
                yield pid


class PermutedRoundRobinSchedule(Schedule):
    """Lockstep passes, each a fresh uniform permutation of all pids.

    Every process takes exactly one step per pass, but the order *within*
    each pass is drawn uniformly at random from the schedule's private seed.
    This is the richest adversary whose executions still factorize into
    per-pass operation orders, which is what the vectorized backend needs
    to run trials as batched array operations; see
    :mod:`repro.runtime.vectorized`.
    """

    def __init__(self, n: int, seed: int):
        self.n = _check_n(n)
        self.seed = seed

    def __iter__(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        pids = list(range(self.n))
        while True:
            rng.shuffle(pids)
            yield from list(pids)


class InterleavedLockstepSchedule(Schedule):
    """Windows of two slots per process, uniformly shuffled within a window.

    Each window contains every pid exactly twice, in a uniform random
    arrangement of the 2n slots.  Unlike plain (or permuted) round-robin,
    one process's *second* operation of a window can land before another's
    *first*, so two-operation rounds (snapshot update/scan) see genuinely
    partial views — permuted round-robin degenerates there, because every
    scan pass follows a complete update pass.  Still lockstep enough for
    the vectorized backend to batch.
    """

    def __init__(self, n: int, seed: int):
        self.n = _check_n(n)
        self.seed = seed

    def __iter__(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        window = [pid for pid in range(self.n) for _ in range(2)]
        while True:
            rng.shuffle(window)
            yield from list(window)


class RandomSchedule(Schedule):
    """Infinite uniform random interleaving drawn from a private seed.

    The seed is fixed at construction time, so the sequence of slots is a
    function of the seed alone — the adversary flips its own coins but never
    sees the algorithm's.
    """

    def __init__(self, n: int, seed: int):
        self.n = _check_n(n)
        self.seed = seed

    def __iter__(self) -> Iterator[int]:
        # ``Random.randrange(n)``'s own rejection loop, inlined: draw
        # ``n.bit_length()`` bits until the value is below ``n``.  The
        # stream is bit-identical to ``randrange`` (a unit test pins it).
        getrandbits = random.Random(self.seed).getrandbits
        n = self.n
        bits = n.bit_length()
        while True:
            pid = getrandbits(bits)
            while pid >= n:
                pid = getrandbits(bits)
            yield pid


class BlockSchedule(Schedule):
    """Random interleaving of per-process bursts of ``block_size`` steps."""

    def __init__(self, n: int, block_size: int, seed: int):
        self.n = _check_n(n)
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        self.seed = seed

    def __iter__(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        while True:
            pid = rng.randrange(self.n)
            for _ in range(self.block_size):
                yield pid


class FrontRunnerSchedule(Schedule):
    """One process runs ``lead_steps`` solo, then round-robin over everyone.

    This is the adversary that maximizes the chance that a single persona
    fills the shared objects before anyone else moves.
    """

    def __init__(self, n: int, leader: int = 0, lead_steps: Optional[int] = None):
        self.n = _check_n(n)
        if not 0 <= leader < n:
            raise ConfigurationError(f"leader {leader} out of range for n={n}")
        self.leader = leader
        self.lead_steps = lead_steps if lead_steps is not None else 4 * n

    def __iter__(self) -> Iterator[int]:
        for _ in range(self.lead_steps):
            yield self.leader
        for pid in itertools.cycle(range(self.n)):
            yield pid


class CrashSchedule(Schedule):
    """Stop scheduling selected processes after per-process step budgets.

    ``crashes`` maps pid -> number of slots that pid receives before it is
    never scheduled again.  Crashed processes simply stop taking steps, which
    is exactly how crash failures manifest in an asynchronous schedule.
    """

    def __init__(self, base: Schedule, crashes: Dict[int, int]):
        self.base = base
        self.n = base.n
        for pid, budget in crashes.items():
            if not 0 <= pid < self.n:
                raise ConfigurationError(f"crashed pid {pid} out of range")
            if budget < 0:
                raise ConfigurationError(f"negative crash budget for pid {pid}")
        self.crashes = dict(crashes)

    def __iter__(self) -> Iterator[int]:
        remaining = dict(self.crashes)
        for pid in self.base:
            if pid in remaining:
                if remaining[pid] == 0:
                    continue
                remaining[pid] -= 1
            yield pid


class StutterSchedule(Schedule):
    """Repeat every slot of a base schedule ``repeat`` times."""

    def __init__(self, base: Schedule, repeat: int):
        if repeat < 1:
            raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
        self.base = base
        self.n = base.n
        self.repeat = repeat

    def __iter__(self) -> Iterator[int]:
        for pid in self.base:
            for _ in range(self.repeat):
                yield pid


class LimitedSchedule(Schedule):
    """Truncate a base schedule after ``max_slots`` slots.

    Turns an infinite adversary into a finite one, which is how starvation
    scenarios (e.g. crash failures) are run: combine with
    ``Simulator.run(allow_partial=True)`` so surviving processes' outputs
    can still be inspected.
    """

    def __init__(self, base: Schedule, max_slots: int):
        if max_slots < 0:
            raise ConfigurationError(f"max_slots must be >= 0, got {max_slots}")
        self.base = base
        self.n = base.n
        self.max_slots = max_slots

    def __iter__(self) -> Iterator[int]:
        return itertools.islice(iter(self.base), self.max_slots)


__all__.append("LimitedSchedule")


def standard_gallery(n: int, seeds: SeedTree) -> Dict[str, Schedule]:
    """The named family of adversaries used across tests and benchmarks.

    Returns a dict mapping a human-readable adversary name to a schedule for
    ``n`` processes.  All randomized members draw their seeds from disjoint
    branches of ``seeds``.
    """
    gallery: Dict[str, Schedule] = {
        "round-robin": RoundRobinSchedule(n),
        "reversed": ReversedRoundRobinSchedule(n),
        "random": RandomSchedule(n, seeds.child("random").seed),
        "blocks-4": BlockSchedule(n, 4, seeds.child("blocks-4").seed),
        "front-runner": FrontRunnerSchedule(n),
    }
    if n > 1:
        half = {pid: 1 for pid in range(n // 2)}
        gallery["crash-half"] = CrashSchedule(
            RandomSchedule(n, seeds.child("crash-half").seed), half
        )
    return gallery


__all__.append("standard_gallery")
