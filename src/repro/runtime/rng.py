"""Deterministic randomness plumbing.

The oblivious-adversary model requires two independence properties that are
easy to violate accidentally in a simulation:

1. the adversary's schedule must be independent of every coin flipped by the
   algorithm, and
2. coins flipped by different processes (and by different rounds of the same
   persona) must be mutually independent.

Both are enforced structurally by deriving every random stream from a
:class:`SeedTree`: a master seed plus a path of string labels.  Distinct paths
give streams that are independent for all practical purposes (seeds are
derived by SHA-256, so collisions would imply a hash collision).  Schedules
are always drawn from the ``"schedule"`` branch and algorithms from the
``"algorithm"`` branch, so no amount of refactoring inside a protocol can leak
algorithm randomness into the schedule.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Iterator, Tuple

__all__ = ["SeedTree", "derive_seed"]

_SEED_BYTES = 8

#: ``(master, labels, hasher)`` for the last prefix :func:`derive_seed`
#: hashed; the hasher itself is never updated, only copied.
_prefix: Tuple[Any, Tuple[str, ...], Any] = (object(), (), None)


def derive_seed(master: int, *labels: str) -> int:
    """Derive a child seed from ``master`` and a path of labels.

    The derivation hashes the decimal master seed together with the
    NUL-separated label path, so ``derive_seed(s, "a", "b")`` and
    ``derive_seed(s, "ab")`` are distinct streams.

    Siblings share every label but the last (``process-0``,
    ``process-1``, ... under one trial's ``algorithm`` branch), so the
    hasher fed with ``master`` and ``labels[:-1]`` is kept in a
    single-entry cache and copied, not rebuilt.  The cache keys on the
    master *object*, which it holds: the same object always has the same
    decimal text, while equal masters such as ``0.0`` and ``-0.0`` (or
    ``1`` and ``True``) do not.  Master, labels and hasher are stored as
    one tuple, so a concurrent caller sees a matched set.
    """
    global _prefix
    prefix = labels[:-1]
    cached_master, cached_prefix, cached = _prefix
    if master is not cached_master or prefix != cached_prefix:
        cached = hashlib.sha256(str(master).encode("ascii"))
        for label in prefix:
            cached.update(b"\x00" + label.encode("utf-8"))
        _prefix = (master, prefix, cached)
    hasher = cached.copy()
    if labels:
        hasher.update(b"\x00" + labels[-1].encode("utf-8"))
    return int.from_bytes(hasher.digest()[:_SEED_BYTES], "big")


class SeedTree:
    """A node in a tree of deterministically derived random seeds.

    A :class:`SeedTree` is cheap to create and immutable.  Typical use::

        seeds = SeedTree(master_seed)
        schedule_rng = seeds.child("schedule").rng()
        process_rng = seeds.child("algorithm").child(f"process-{pid}").rng()

    Two trees with the same master seed and path always produce identical
    streams, which is what makes whole simulated executions reproducible
    from a single integer.
    """

    __slots__ = ("_seed", "_path")

    def __init__(self, seed: int, path: Tuple[str, ...] = ()):
        self._seed = int(seed)
        self._path = tuple(path)

    @property
    def seed(self) -> int:
        """The derived integer seed at this node."""
        if self._path:
            return derive_seed(self._seed, *self._path)
        return self._seed

    @property
    def path(self) -> Tuple[str, ...]:
        """The label path from the master seed to this node."""
        return self._path

    def child(self, label: str) -> "SeedTree":
        """Return the subtree rooted at ``label`` under this node."""
        return SeedTree(self._seed, self._path + (label,))

    def rng(self) -> random.Random:
        """Return a fresh :class:`random.Random` seeded at this node."""
        return random.Random(self.seed)

    def children(self, prefix: str, count: int) -> Iterator["SeedTree"]:
        """Yield ``count`` numbered children ``f"{prefix}-{i}"``."""
        for index in range(count):
            yield self.child(f"{prefix}-{index}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedTree(seed={self._seed}, path={'/'.join(self._path) or '<root>'})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedTree):
            return NotImplemented
        return self._seed == other._seed and self._path == other._path

    def __hash__(self) -> int:
        return hash((self._seed, self._path))


def _process_streams(seeds: SeedTree, n: int) -> Iterator[random.Random]:
    """Yield the private stream of each of ``n`` processes, by pid: the
    stream of ``seeds.child("algorithm").child(f"process-{pid}")``.

    The one owner of the per-process path.  Every pid's node reuses the
    checked seed and ``"algorithm"`` path of ``seeds`` instead of running
    ``SeedTree.__init__`` again; each stream still comes from
    :meth:`SeedTree.rng`, so its seed is still derived by
    :func:`derive_seed`.
    """
    seed = seeds._seed
    path = seeds._path + ("algorithm",)
    new = SeedTree.__new__
    for pid in range(n):
        node = new(SeedTree)
        node._seed = seed
        node._path = (*path, f"process-{pid}")
        yield node.rng()
