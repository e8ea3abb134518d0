"""O(1)-memory streaming schedule samplers for the lockstep families.

The classic schedule gallery (:mod:`repro.runtime.scheduler`) materializes
per-pass state — :class:`~repro.runtime.scheduler.PermutedRoundRobinSchedule`
shuffles a ``list(range(n))`` every pass and
:class:`~repro.runtime.scheduler.InterleavedLockstepSchedule` a ``2n``-slot
window — which is invisible at experiment sizes but allocates gigabytes and
burns a full Fisher–Yates per pass once ``n`` reaches the million-process
regime.  This module re-expresses the same *families* as pure functions:

    ``pid_at(step)``  —  the pid of global slot ``step``, computed from
    ``(seed, step)`` alone in O(1) time and memory.

The three samplers, :class:`StreamingPermutedSchedule`,
:class:`StreamingInterleavedSchedule` and :class:`StreamingRandomSchedule`,
sample the same *distribution class* as ``permuted`` / ``interleaved`` /
``random`` (fresh uniform-ish pass permutations / shuffled double windows /
iid uniform slots) from a seeded Feistel permutation or hash instead of a
``random.Random`` Fisher–Yates.  Exact bit-identity to the
``random.Random`` stream is impossible without materializing the array
(Fisher–Yates is inherently stateful), so these are registered as *new*
schedule families (``streaming-*`` in :mod:`repro.workloads.schedules`)
rather than silently changing the existing ones.  Their property tests pin
them to a *materialized reference* instead: building each pass's
permutation as an explicit list through the same PRP yields the identical
slot stream, and every pass is a true permutation (each pid exactly once,
or exactly twice for the interleaved windows, second occurrence after the
first).  The closed-form ``round-robin`` / ``reversed`` orders need no
streaming twin: their :mod:`~repro.runtime.scheduler` classes already hold
O(1) state.

The permutation primitive is a 4-round balanced Feistel network over
``2k``-bit blocks (``k = ceil(bits(N)/2)``) with round keys derived by a
splitmix64-style mixer from ``(seed, pass)``, cycle-walked down to the
domain ``[0, N)``.  A Feistel network is a bijection by construction, so
each pass order is a genuine permutation; cycle-walking preserves that
while restricting to the domain.  It is not cryptographic and does not
need to be — the adversary only needs its coins to be independent of the
algorithm's, which seeding from a disjoint :class:`SeedTree` branch
already guarantees.

Schedules are oblivious by construction: every slot is a function of the
construction-time seed, never of execution state.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.runtime.scheduler import Schedule, _check_n, _check_seed

__all__ = [
    "FeistelPermutation",
    "StreamingPermutedSchedule",
    "StreamingInterleavedSchedule",
    "StreamingRandomSchedule",
]

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: a fast, well-dispersed 64-bit mixer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class FeistelPermutation:
    """A seeded bijection on ``[0, domain)`` evaluated point-wise in O(1).

    4-round balanced Feistel over the smallest even-bit block covering the
    domain, cycle-walking out-of-domain points back through the network.
    The expected walk length is below 4 (the block is at most 4x the
    domain), so ``apply`` is O(1) amortized with no table.
    """

    ROUNDS = 4

    def __init__(self, domain: int, seed: int):
        if domain < 1:
            raise ConfigurationError(
                f"permutation domain must be >= 1, got {domain}"
            )
        self.domain = domain
        self.seed = seed
        half_bits = max(1, (max(domain - 1, 1).bit_length() + 1) // 2)
        self._half_bits = half_bits
        self._half_mask = (1 << half_bits) - 1
        self._block = 1 << (2 * half_bits)
        self._keys = tuple(
            _mix64((seed << 3) ^ round_index ^ 0xA5A5A5A5A5A5A5A5)
            for round_index in range(self.ROUNDS)
        )

    def _encrypt(self, value: int) -> int:
        left = value >> self._half_bits
        right = value & self._half_mask
        for key in self._keys:
            left, right = (
                right,
                left ^ (_mix64(right ^ key) & self._half_mask),
            )
        return (left << self._half_bits) | right

    def apply(self, index: int) -> int:
        """The image of ``index``; raises on out-of-domain input."""
        if not 0 <= index < self.domain:
            raise ConfigurationError(
                f"index {index} outside permutation domain [0, {self.domain})"
            )
        value = self._encrypt(index)
        while value >= self.domain:  # cycle-walk back into the domain
            value = self._encrypt(value)
        return value

    def table(self) -> List[int]:
        """The full permutation as a list — O(domain), tests only."""
        return [self.apply(index) for index in range(self.domain)]


class _StreamingSchedule(Schedule):
    """Base for pure-function schedules: ``pid_at`` drives iteration."""

    def pid_at(self, step: int) -> int:
        """The pid of global slot ``step`` — pure in ``(self, step)``."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        for step in itertools.count():
            yield self.pid_at(step)


class StreamingPermutedSchedule(_StreamingSchedule):
    """Lockstep passes, each a fresh seeded Feistel permutation of the pids.

    Slot ``step`` belongs to pass ``step // n`` at offset ``step % n``; the
    pid is the pass's permutation applied to the offset.  Same family as
    :class:`~repro.runtime.scheduler.PermutedRoundRobinSchedule` (every
    process takes exactly one step per pass, pass orders drawn from the
    schedule's private seed) in O(1) memory per slot.
    """

    def __init__(self, n: int, seed: int):
        self.n = _check_n(n)
        self.seed = _check_seed(seed)
        self._pass_index: Optional[int] = None
        self._pass_prp: Optional[FeistelPermutation] = None

    def _permutation(self, pass_index: int) -> FeistelPermutation:
        # One-entry memo: iteration walks passes in order, so re-deriving
        # round keys per slot would be the only cost above the hash work.
        # Purity is preserved — the memo caches a pure function's value.
        if pass_index != self._pass_index:
            self._pass_prp = FeistelPermutation(
                self.n, _mix64(self.seed ^ (pass_index << 1) ^ 0x5EED)
            )
            self._pass_index = pass_index
        assert self._pass_prp is not None
        return self._pass_prp

    def pid_at(self, step: int) -> int:
        return self._permutation(step // self.n).apply(step % self.n)


class StreamingInterleavedSchedule(_StreamingSchedule):
    """Shuffled double windows (each pid twice per ``2n`` slots) in O(1).

    Window ``step // 2n`` is a Feistel permutation of the ``2n`` half-slots;
    half-slot ``2p`` and ``2p + 1`` both map to pid ``p``, so each window
    schedules every pid exactly twice in a seeded uniform-ish arrangement —
    the same family as
    :class:`~repro.runtime.scheduler.InterleavedLockstepSchedule`, where one
    process's second operation can precede another's first.
    """

    def __init__(self, n: int, seed: int):
        self.n = _check_n(n)
        self.seed = _check_seed(seed)
        self._window_index: Optional[int] = None
        self._window_prp: Optional[FeistelPermutation] = None

    def _permutation(self, window_index: int) -> FeistelPermutation:
        if window_index != self._window_index:
            self._window_prp = FeistelPermutation(
                2 * self.n,
                _mix64(self.seed ^ (window_index << 1) ^ 0x1A7E),
            )
            self._window_index = window_index
        assert self._window_prp is not None
        return self._window_prp

    def pid_at(self, step: int) -> int:
        width = 2 * self.n
        return self._permutation(step // width).apply(step % width) // 2


class StreamingRandomSchedule(_StreamingSchedule):
    """Iid uniform-ish slots from a hash of ``(seed, step)``.

    The pid is ``hash * n >> 64`` (Lemire's multiply-shift range map) on a
    splitmix64-mixed 64-bit word, so each slot is uniform up to a modulo
    bias below ``n / 2**64`` — unobservable at any feasible ``n`` — and
    independent across steps to the mixer's quality.  Same family as
    :class:`~repro.runtime.scheduler.RandomSchedule` without its sequential
    ``random.Random`` state.
    """

    def __init__(self, n: int, seed: int):
        self.n = _check_n(n)
        self.seed = _check_seed(seed)

    def pid_at(self, step: int) -> int:
        return (_mix64((self.seed << 1) ^ _mix64(step)) * self.n) >> 64
