"""Atomic operation requests.

A protocol program is a Python generator that *yields* one of these operation
objects whenever it wants to touch shared memory, and receives the operation's
result as the value of the ``yield`` expression::

    def program(ctx: ProcessContext):
        yield Write(register, ctx.pid)          # one step
        value = yield Read(register)            # one step
        return value                            # local, free

Each yielded operation is executed atomically by the simulator and costs the
process exactly one step, which matches the unit-cost step measure used by
the paper for both registers and snapshots.

Operations are small frozen, slotted dataclasses rather than direct method
calls so that (a) the simulator is the only code that can mutate shared
objects, which makes atomicity a structural property instead of a
convention, and (b) every step can be traced and counted uniformly.
A protocol builds one on most of its steps, so each class's ``__init__``
sets the slots through their descriptors (:func:`_direct_init`) instead of
the frozen dataclass's one ``object.__setattr__`` call per field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.memory.base import SharedObject

__all__ = ["Operation", "Read", "Write", "Update", "Scan", "MaxRead", "MaxWrite"]

_Op = TypeVar("_Op", bound=type)


def _direct_init(cls: _Op) -> _Op:
    """Give an operation class an ``__init__`` with the dataclass's
    parameters and defaults that sets each slot through its descriptor.

    Assignment after construction still raises ``FrozenInstanceError``;
    only construction skips ``object.__setattr__``.
    """
    target: Any = cls
    names = [field.name for field in fields(target)]
    set_obj = target.obj.__set__
    init: Any
    if names == ["obj"]:
        def init_obj(self: Any, obj: Any) -> None:
            set_obj(self, obj)

        init = init_obj
    elif names == ["obj", "value"]:
        set_value = target.value.__set__

        def init_obj_value(self: Any, obj: Any, value: Any = None) -> None:
            set_obj(self, obj)
            set_value(self, value)

        init = init_obj_value
    else:  # pragma: no cover - every operation has one of the two shapes
        raise TypeError(f"{target.__name__} has fields {names}")
    init.__name__ = "__init__"
    init.__qualname__ = f"{target.__qualname__}.__init__"
    target.__init__ = init
    return cls


@dataclass(frozen=True, slots=True)
class Operation:
    """Base class for one atomic shared-memory operation request.

    Attributes:
        obj: the shared object the operation targets.
        kind: short lowercase name of the operation's class (``"read"``,
            ``"write"``, ...), used in traces; a class attribute, set once
            per subclass.
    """

    kind: ClassVar[str] = "operation"

    obj: "SharedObject"

    def __init_subclass__(cls) -> None:
        # No super() call: ``slots=True`` rebuilds each dataclass, and the
        # zero-argument form would name the pre-rebuild class.
        cls.kind = cls.__name__.lower()


@_direct_init
@dataclass(frozen=True, slots=True)
class Read(Operation):
    """Read an atomic register; result is its current value."""


@_direct_init
@dataclass(frozen=True, slots=True)
class Write(Operation):
    """Write ``value`` to an atomic register; result is ``None``."""

    value: Any = None


@_direct_init
@dataclass(frozen=True, slots=True)
class Update(Operation):
    """Update the invoking process's component of a snapshot object."""

    value: Any = None


@_direct_init
@dataclass(frozen=True, slots=True)
class Scan(Operation):
    """Atomically read all components of a snapshot object.

    The result is an immutable tuple with one entry per process (``None`` for
    processes that have not updated yet).  The whole scan costs one step:
    this is the *unit-cost snapshot* assumption of Section 2.
    """


@_direct_init
@dataclass(frozen=True, slots=True)
class MaxRead(Operation):
    """Read the largest value ever written to a max register (footnote 1)."""


@_direct_init
@dataclass(frozen=True, slots=True)
class MaxWrite(Operation):
    """Write ``value`` to a max register; retained only if it is the max."""

    value: Any = None
