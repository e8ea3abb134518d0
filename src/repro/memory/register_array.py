"""Lazily allocated arrays of shared objects.

Round-based protocols use one shared object per round (``A_i`` in
Algorithm 1, ``r_i`` in Algorithm 2), and consensus built from conciliators
uses an unbounded sequence of phase objects.  These helpers allocate objects
on first touch so protocols can be written against a conceptually infinite
array, while experiments can still enumerate what was actually used.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, TypeVar

from repro.memory.base import SharedObject
from repro.memory.register import AtomicRegister
from repro.memory.snapshot import SnapshotObject

__all__ = ["RegisterArray", "SnapshotArray", "ObjectArray"]

T = TypeVar("T", bound=SharedObject)


class ObjectArray(Generic[T]):
    """A lazily materialized, unbounded array of shared objects.

    Indexing is on every protocol step's path, so a hit costs one dict
    lookup; only a miss checks the index and materializes the object.
    """

    def __init__(self, factory: Callable[[int], T], name: str = "array"):
        self._factory = factory
        self.name = name
        self._objects: Dict[int, T] = {}

    def __getitem__(self, index: int) -> T:
        try:
            return self._objects[index]
        except KeyError:
            pass
        if index < 0:
            raise IndexError(f"object array index must be >= 0, got {index}")
        created = self._objects[index] = self._factory(index)
        return created

    def allocated(self) -> List[int]:
        """Indices of objects that have been touched, in sorted order."""
        return sorted(self._objects)

    def __iter__(self) -> Iterator[T]:
        for index in self.allocated():
            yield self._objects[index]

    def __len__(self) -> int:
        return len(self._objects)


class RegisterArray(ObjectArray[AtomicRegister]):
    """Unbounded array of atomic registers, e.g. ``r_i`` in Algorithm 2."""

    def __init__(self, name: str = "r", initial: Any = None):
        super().__init__(
            lambda index: AtomicRegister(f"{name}[{index}]", initial=initial),
            name=name,
        )


class SnapshotArray(ObjectArray[SnapshotObject]):
    """Unbounded array of snapshot objects, e.g. ``A_i`` in Algorithm 1.

    ``sparse`` is forwarded to every :class:`SnapshotObject` this array
    materializes (``None`` keeps the size-based automatic choice), so a
    round-indexed family of snapshots inherits the sparse storage model
    from one switch.
    """

    def __init__(self, n: int, name: str = "A", *, sparse: Optional[bool] = None):
        super().__init__(
            lambda index: SnapshotObject(n, f"{name}[{index}]", sparse=sparse),
            name=name,
        )
        self.n = n
        self.sparse = sparse
