"""Shared-memory object implementations.

The paper's two models are built from:

- :class:`~repro.memory.register.AtomicRegister` — multi-writer multi-reader
  atomic registers (Section 3's model);
- :class:`~repro.memory.snapshot.SnapshotObject` — unit-cost snapshots
  (Section 2's model): one ``update`` writes the caller's component, one
  ``scan`` atomically returns all components;
- :class:`~repro.memory.max_register.MaxRegister` — max registers, which the
  paper's footnote 1 observes suffice for Algorithm 1.

Registers are unbounded-size, as the paper assumes ("We do not assume any
limitation on the size of registers"), so values may be arbitrary Python
objects — in particular whole personae.

Objects may only be mutated through the simulator (processes yield operation
requests); direct method calls are reserved for test code that checks
sequential semantics.

All three primitive objects default to atomic semantics and can be
weakened declaratively: :mod:`repro.memory.semantics` defines the
:class:`~repro.memory.semantics.RegisterModel` ladder (atomic < regular <
safe) and the resolver/injector machinery that applies a model as a
read-resolution policy.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.memory.base": ("SharedObject",),
    "repro.memory.bounded_max_register": ("BoundedMaxRegister",),
    "repro.memory.emulated_snapshot": (
        "EmulatedSnapshot", "LazyRegisterFile", "SnapshotCell",
    ),
    "repro.memory.max_register": ("MaxRegister",),
    "repro.memory.register": ("AtomicRegister",),
    "repro.memory.register_array": ("RegisterArray", "SnapshotArray"),
    "repro.memory.semantics": (
        "RegisterModel", "SemanticsInjector", "SemanticsResolver",
    ),
    "repro.memory.snapshot": (
        "SnapshotObject", "SparseView", "SPARSE_AUTO_THRESHOLD",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.memory.base import SharedObject as SharedObject
    from repro.memory.bounded_max_register import (
        BoundedMaxRegister as BoundedMaxRegister,
    )
    from repro.memory.emulated_snapshot import (
        EmulatedSnapshot as EmulatedSnapshot,
        LazyRegisterFile as LazyRegisterFile,
        SnapshotCell as SnapshotCell,
    )
    from repro.memory.max_register import MaxRegister as MaxRegister
    from repro.memory.register import AtomicRegister as AtomicRegister
    from repro.memory.register_array import (
        RegisterArray as RegisterArray,
        SnapshotArray as SnapshotArray,
    )
    from repro.memory.semantics import (
        RegisterModel as RegisterModel,
        SemanticsInjector as SemanticsInjector,
        SemanticsResolver as SemanticsResolver,
    )
    from repro.memory.snapshot import (
        SPARSE_AUTO_THRESHOLD as SPARSE_AUTO_THRESHOLD,
        SnapshotObject as SnapshotObject,
        SparseView as SparseView,
    )
