"""Unit-cost atomic snapshot object.

Section 2 of the paper assumes a snapshot object whose ``scan`` returns the
entire vector of components in a single atomic step ("unit-cost snapshot
model").  Real wait-free snapshot constructions from registers cost
:math:`O(n)` or more per operation; the paper deliberately abstracts that
away, and so do we: ``scan`` is one charged step.

The object also maintains the *view history*: the proof of Lemma 1 depends on
views being totally ordered by inclusion ("each write ... can only add new
personae, each view is a subset of any larger views").  Tests use
:meth:`SnapshotObject.views_nest` to check this holds in every execution.

Storage comes in two flavours behind the one constructor:

- **dense** (the historical default for small ``n``): a plain list of ``n``
  components; a scan returns a tuple and costs :math:`O(n)` Python work.
- **sparse** (``sparse=True``, and the automatic choice once
  ``n >= SPARSE_AUTO_THRESHOLD``): a dict keyed by the components actually
  written, so an idle process costs nothing until its first update.  Scans
  return a :class:`SparseView` — length ``n``, :math:`O(1)` indexing, but
  *iteration yields only the touched (non-default) components*, so the
  ubiquitous ``[entry for entry in view if entry is not None]`` pattern
  costs :math:`O(touched)` instead of :math:`O(n)`.  Dense and sparse modes
  are otherwise observationally equivalent (``view[i]`` agrees everywhere);
  the property suite pins that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidOperationError
from repro.memory.base import SharedObject
from repro.runtime.operations import Operation, Scan, Update

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.semantics import SemanticsResolver

__all__ = ["SPARSE_AUTO_THRESHOLD", "SnapshotObject", "SparseView"]

#: Component counts at or above this default to sparse storage.  Well below
#: it the dense list is smaller and faster; well above it the dense scan's
#: ``O(n)`` tuple copy per step is what makes million-process runs
#: infeasible.  Callers can force either mode explicitly.
SPARSE_AUTO_THRESHOLD = 1 << 14


class SparseView:
    """An immutable scan result backed by the touched components only.

    Behaves like the dense tuple for random access — ``view[i]`` is the
    component value (``None`` when never updated) for any ``0 <= i < n``,
    and ``len(view)`` is ``n`` — but **iteration yields only the touched
    components, in index order**.  That makes the conciliators' filter
    idiom (``[e for e in view if e is not None]``) a no-op pass over the
    processes that actually wrote, which is the whole point of the sparse
    model: a scan's cost follows the contention, not the namespace.
    """

    __slots__ = ("_items", "_n")

    def __init__(self, items: Tuple[Tuple[int, Any], ...], n: int):
        self._items = items
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> Any:
        if isinstance(index, slice):
            return tuple(self.dense())[index]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(
                f"snapshot view index {index} out of range for n={self._n}"
            )
        # Touched sets are tiny relative to n by construction; a binary
        # search would only pay off past thousands of concurrent writers.
        for key, value in self._items:
            if key == index:
                return value
        return None

    def __iter__(self) -> Iterator[Any]:
        for _, value in self._items:
            yield value

    def items(self) -> Tuple[Tuple[int, Any], ...]:
        """The touched ``(index, value)`` pairs, in index order."""
        return self._items

    def touched(self) -> int:
        """Number of components ever updated at scan time."""
        return len(self._items)

    def dense(self) -> Iterator[Any]:
        """Iterate all ``n`` components densely (``None`` for untouched)."""
        position = 0
        for key, value in self._items:
            while position < key:
                yield None
                position += 1
            yield value
            position += 1
        while position < self._n:
            yield None
            position += 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseView):
            return self._n == other._n and self._items == other._items
        if isinstance(other, (tuple, list)):
            return len(other) == self._n and all(
                a == b for a, b in zip(self.dense(), other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseView(n={self._n}, touched={len(self._items)})"


class SnapshotObject(SharedObject):
    """An n-component snapshot object with unit-cost scans.

    Component ``i`` may only be updated by process ``i`` (the standard
    single-writer-per-component snapshot of the paper); a scan returns an
    immutable view of all components, with ``None`` for components never
    updated.

    Args:
        n: number of components (one per process).
        sparse: storage mode.  ``None`` (default) picks dense below
            :data:`SPARSE_AUTO_THRESHOLD` and sparse at or above it;
            ``True``/``False`` force a mode.  Dense scans return plain
            tuples; sparse scans return :class:`SparseView` objects whose
            iteration covers touched components only.

    Binding a :class:`~repro.memory.semantics.SemanticsResolver` weakens
    scans component-wise: each component behaves like a register of the
    declared model, so a scan concurrent with an update may observe that
    component's old value (regular) or any value it ever held (safe).
    View nesting (Lemma 1) is only guaranteed for the atomic model.
    Weakened semantics resolve per *written* component, so they compose
    with sparse storage without touching idle components (an untouched
    component has no write history to weaken).
    """

    def __init__(self, n: int, name: str = "", *, sparse: Optional[bool] = None):
        super().__init__(name)
        if n < 1:
            raise InvalidOperationError(f"snapshot needs n >= 1, got {n}")
        self.n = n
        self.sparse = sparse if sparse is not None else n >= SPARSE_AUTO_THRESHOLD
        self._dense: List[Any] = [] if self.sparse else [None] * n
        self._sparse: Dict[int, Any] = {}
        # Non-None dense components, kept current by _set so an atomic
        # scan records its view size without counting the view.
        self._filled = 0
        self._semantics: Optional["SemanticsResolver"] = None
        self.update_count = 0
        self.scan_count = 0
        self._view_sizes: List[int] = []

    def bind_semantics(self, resolver: "SemanticsResolver") -> None:
        """Resolve future scans component-wise under ``resolver``'s model."""
        self._semantics = resolver

    # -- storage helpers -----------------------------------------------------

    def _get(self, index: int) -> Any:
        if self.sparse:
            return self._sparse.get(index)
        return self._dense[index]

    def _set(self, index: int, value: Any) -> None:
        if self.sparse:
            self._sparse[index] = value
        else:
            dense = self._dense
            self._filled += (value is not None) - (dense[index] is not None)
            dense[index] = value

    def _touched_items(self) -> Tuple[Tuple[int, Any], ...]:
        return tuple(sorted(self._sparse.items()))

    def apply(self, operation: Operation, pid: int) -> Any:
        if isinstance(operation, Update):
            if not 0 <= pid < self.n:
                raise InvalidOperationError(
                    f"pid {pid} out of range for snapshot of size {self.n}"
                )
            if self._semantics is not None:
                self._semantics.note_write(
                    f"{self.name}[{pid}]", pid,
                    self._get(pid), operation.value,
                )
            self._set(pid, operation.value)
            self.update_count += 1
            return None
        if isinstance(operation, Scan):
            self.scan_count += 1
            view = self._scan_view(pid)
            if self.sparse:
                size = view.touched()
            elif self._semantics is None:
                size = self._filled  # the view is a copy of the components
            else:
                size = len([item for item in view if item is not None])
            self._view_sizes.append(size)
            return view
        return self._reject(operation)

    def _scan_view(self, pid: int) -> Any:
        if self.sparse:
            if self._semantics is not None:
                items = tuple(
                    (index, self._semantics.resolve_read(
                        f"{self.name}[{index}]", pid, value, initial=None
                    ))
                    for index, value in self._touched_items()
                )
            else:
                items = self._touched_items()
            return SparseView(items, self.n)
        if self._semantics is not None:
            return tuple(
                self._semantics.resolve_read(
                    f"{self.name}[{index}]", pid, component, initial=None
                )
                for index, component in enumerate(self._dense)
            )
        return tuple(self._dense)

    @property
    def components(self) -> Tuple[Any, ...]:
        """Current dense component vector (for inspection only).

        Materializes ``O(n)`` even in sparse mode; inspection-only, never
        on the step path.
        """
        if self.sparse:
            return tuple(SparseView(self._touched_items(), self.n).dense())
        return tuple(self._dense)

    @property
    def touched_components(self) -> int:
        """Number of components ever updated (allocated cells when sparse)."""
        if self.sparse:
            return len(self._sparse)
        return self._filled

    @property
    def view_sizes(self) -> List[int]:
        """Number of non-empty components seen by each scan, in order."""
        return list(self._view_sizes)

    def views_nest(self) -> bool:
        """True if scan view sizes were non-decreasing.

        Because components are never cleared, non-decreasing sizes together
        with the single-assignment discipline imply set inclusion; the full
        inclusion check lives in :func:`repro.runtime.trace.check_snapshot_semantics`.
        """
        sizes = self._view_sizes
        return all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1))
