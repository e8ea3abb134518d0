"""Schedule construction for experiment sweeps.

Experiments hold the adversary *family* fixed while sweeping n or drawing
fresh trials; :func:`make_schedule` builds the named family member for a
given n and trial seed, keeping every randomized schedule on its own seed
branch (so schedules stay independent of algorithm coins).

Seeding contract: every randomized family draws its private seed from a
*named child* of the ``seeds`` tree passed in (``seeds.child("permuted")``,
``seeds.child("random")``, ...), and :class:`ScheduleSpec` pins the integer
seed directly.  Two specs with equal ``(family, n, seed)`` therefore
rebuild bit-identical schedules on any host, and a family's seed never
feeds any other family's randomness.  The ``streaming-*`` families consume
their seed through stateless hashing (no ``random.Random`` instance at
all), so the same integer seed can be shared across millions of slots
without per-pass state.

Scale contract: families whose construction or iteration materializes
:math:`O(n)` state (:data:`MATERIALIZED_FAMILIES`) are refused above
:data:`MAX_MATERIALIZED_N` processes with a pointer at the equivalent
``streaming-*`` family, instead of silently allocating gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import (
    BlockSchedule,
    CrashSchedule,
    ExplicitSchedule,
    FrontRunnerSchedule,
    InterleavedLockstepSchedule,
    PermutedRoundRobinSchedule,
    RandomSchedule,
    ReversedRoundRobinSchedule,
    RoundRobinSchedule,
    Schedule,
)
from repro.runtime.streaming import (
    StreamingInterleavedSchedule,
    StreamingPermutedSchedule,
    StreamingRandomSchedule,
)

__all__ = [
    "SCHEDULE_FAMILIES",
    "STREAMING_FAMILIES",
    "PARTIAL_FAMILIES",
    "MATERIALIZED_FAMILIES",
    "MAX_MATERIALIZED_N",
    "ALL_SCHEDULE_FAMILIES",
    "ScheduleSpec",
    "make_schedule",
    "schedule_gallery",
]

#: The fuzz-stable families.  Seeded fuzz and search draws index into this
#: tuple, so it never grows or reorders: that would shift every seeded
#: campaign and invalidate the committed regression corpus.
SCHEDULE_FAMILIES = (
    "round-robin",
    "reversed",
    "random",
    "blocks",
    "front-runner",
    "crash-half",
)

#: O(1)-memory pure-function samplers (:mod:`repro.runtime.streaming`): the
#: ``permuted`` / ``interleaved`` / ``random`` distribution families
#: re-sampled through a Feistel permutation / hash, registered as new names
#: so existing seeded runs keep their exact streams.
STREAMING_FAMILIES = (
    "streaming-permuted",
    "streaming-interleaved",
    "streaming-random",
)

#: Families whose runs can end before every process finishes: an
#: ``explicit`` schedule is a finite list, and ``crash-half`` starves the
#: crashed half forever.  Runs under either need ``allow_partial``.
PARTIAL_FAMILIES = frozenset({"explicit", "crash-half"})

#: Families that materialize O(n) state per construction or pass —
#: ``permuted`` reshuffles a pid list, ``interleaved`` a 2n-slot window,
#: ``crash-half`` a crash budget per crashed pid.  Above
#: :data:`MAX_MATERIALIZED_N` they are refused with a streaming hint.
MATERIALIZED_FAMILIES = ("permuted", "interleaved", "crash-half")

#: Hard ceiling (2**20 processes) for :data:`MATERIALIZED_FAMILIES`.
MAX_MATERIALIZED_N = 1 << 20

#: The streaming stand-in suggested when a materialized family is refused.
_STREAMING_HINT = {
    "permuted": "streaming-permuted",
    "interleaved": "streaming-interleaved",
    "crash-half": "streaming-random",
}

#: Everything :func:`make_schedule` understands: the fuzz-stable families,
#: the lockstep families the vectorized backend batches (see
#: :func:`repro.runtime.vectorized.supported_families`) and the streaming
#: samplers for the million-process regime.
ALL_SCHEDULE_FAMILIES = (
    SCHEDULE_FAMILIES + ("permuted", "interleaved") + STREAMING_FAMILIES
)


def _check_materialized_scale(family: str, n: int) -> None:
    if family in MATERIALIZED_FAMILIES and n > MAX_MATERIALIZED_N:
        raise ConfigurationError(
            f"family {family!r} materializes O(n) state and is refused at "
            f"n={n} > {MAX_MATERIALIZED_N} (2**20): use the O(1)-memory "
            f"{_STREAMING_HINT[family]!r} streaming family instead"
        )


def make_schedule(family: str, n: int, seeds: SeedTree) -> Schedule:
    """Build the named adversary for ``n`` processes.

    ``seeds`` should be a trial-specific branch of the run's ``"schedule"``
    subtree so that repeated trials see fresh (but reproducible) adversary
    randomness.
    """
    _check_materialized_scale(family, n)
    if family == "round-robin":
        return RoundRobinSchedule(n)
    if family == "reversed":
        return ReversedRoundRobinSchedule(n)
    if family == "permuted":
        return PermutedRoundRobinSchedule(n, seeds.child("permuted").seed)
    if family == "interleaved":
        return InterleavedLockstepSchedule(n, seeds.child("interleaved").seed)
    if family == "streaming-permuted":
        return StreamingPermutedSchedule(
            n, seeds.child("streaming-permuted").seed
        )
    if family == "streaming-interleaved":
        return StreamingInterleavedSchedule(
            n, seeds.child("streaming-interleaved").seed
        )
    if family == "streaming-random":
        return StreamingRandomSchedule(
            n, seeds.child("streaming-random").seed
        )
    if family == "random":
        return RandomSchedule(n, seeds.child("random").seed)
    if family == "blocks":
        return BlockSchedule(n, max(2, n // 4), seeds.child("blocks").seed)
    if family == "front-runner":
        return FrontRunnerSchedule(n)
    if family == "crash-half":
        crashes = {pid: 1 for pid in range(n // 2)}
        return CrashSchedule(
            RandomSchedule(n, seeds.child("crash").seed), crashes
        )
    raise ConfigurationError(
        f"unknown schedule family {family!r}; choose from "
        f"{ALL_SCHEDULE_FAMILIES}"
    )


@dataclass(frozen=True)
class ScheduleSpec:
    """A serializable, hashable description of one adversary schedule.

    A spec pins everything needed to rebuild the schedule bit-for-bit: the
    family name (one of :data:`ALL_SCHEDULE_FAMILIES`, or ``"explicit"``), the
    process count, the adversary's private seed, and — for explicit
    schedules — the literal slot sequence.  Specs are frozen dataclasses,
    so equality and hashing come for free; that plus the versioned JSON
    round trip is what lets the fuzzer deduplicate scenarios and replay a
    corpus case byte-for-byte.
    """

    family: str
    n: int
    seed: int = 0
    slots: Optional[Tuple[int, ...]] = None

    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        if self.family == "explicit":
            if self.slots is None:
                raise ConfigurationError(
                    "an explicit ScheduleSpec needs a slots tuple"
                )
            object.__setattr__(self, "slots", tuple(self.slots))
            # Validate the slot sequence eagerly (range checks live there).
            ExplicitSchedule(list(self.slots), n=self.n)
        elif self.family in ALL_SCHEDULE_FAMILIES:
            if self.slots is not None:
                raise ConfigurationError(
                    f"family {self.family!r} does not take explicit slots"
                )
        else:
            raise ConfigurationError(
                f"unknown schedule family {self.family!r}; choose from "
                f"{ALL_SCHEDULE_FAMILIES + ('explicit',)}"
            )
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        # Refuse gigabyte-scale materialization at spec-construction time,
        # before any sweep machinery holds a doomed spec.
        _check_materialized_scale(self.family, self.n)

    @property
    def is_finite(self) -> bool:
        """True when the schedule can end before every process finishes.

        Runs under a :data:`PARTIAL_FAMILIES` member need ``allow_partial``
        and cannot support a whole-run termination oracle (per-process step
        budgets still apply).
        """
        return self.family in PARTIAL_FAMILIES

    def build(self) -> Schedule:
        """Construct the described schedule."""
        if self.family == "explicit":
            assert self.slots is not None
            return ExplicitSchedule(list(self.slots), n=self.n)
        return make_schedule(self.family, self.n, SeedTree(self.seed))

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON description that :meth:`from_json` restores exactly."""
        data: Dict[str, Any] = {
            "version": self._JSON_VERSION,
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
        }
        if self.slots is not None:
            data["slots"] = list(self.slots)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ScheduleSpec":
        """Rebuild a spec from :meth:`to_json` output (versions are pinned)."""
        expect_versioned(
            data, "schedule spec", cls._JSON_VERSION, key="version"
        )
        slots = data.get("slots")
        return cls(
            family=str(data["family"]),
            n=int(data["n"]),
            seed=int(data.get("seed", 0)),
            slots=None if slots is None else tuple(int(s) for s in slots),
        )


def schedule_gallery(n: int, seeds: SeedTree) -> Dict[str, Schedule]:
    """All families instantiated for ``n`` (crash-half only when n > 1)."""
    families: List[str] = [name for name in SCHEDULE_FAMILIES
                           if name != "crash-half" or n > 1]
    return {name: make_schedule(name, n, seeds.child(name)) for name in families}
