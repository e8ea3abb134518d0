"""Execution traces and atomicity checking.

A trace is a linear record of every executed operation.  Because the
simulator executes operations one at a time, the trace *is* a linearization;
the checkers here verify that the shared-object implementations actually
honour their sequential specifications along that linearization (reads return
the last write, snapshot views nest, max registers are monotone).  This turns
"our registers are atomic" from an assumption into a tested property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, NamedTuple

from repro.errors import ProtocolViolationError

__all__ = ["TraceEvent", "TraceRecorder", "check_register_semantics",
           "check_snapshot_semantics", "check_max_register_semantics"]


class TraceEvent(NamedTuple):
    """One executed atomic operation.

    A tuple underneath, since the simulator builds one per traced step;
    it keeps the interface it had as a frozen dataclass: the same fields,
    ``repr`` and hash, equality only with another :class:`TraceEvent`, no
    attribute assignment, and :mod:`dataclasses` introspection
    (``fields``, ``astuple``, ``asdict``, ``replace``) through
    :class:`_TraceEventFields`.

    Attributes:
        step: global step index (0-based, counted operations only).
        pid: the executing process.
        kind: operation kind (``"read"``, ``"write"``, ``"scan"``, ...).
        obj_name: name of the shared object.
        value: the written value, if any.
        result: the operation's return value.
    """

    step: int
    pid: int
    kind: str
    obj_name: str
    value: Any
    result: Any

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)  # type: ignore[arg-type]
        # A bare or foreign named tuple with the same items is no event.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__


@dataclass(frozen=True)
class _TraceEventFields:
    """:class:`TraceEvent`'s fields, declared the way :mod:`dataclasses`
    reads them."""

    step: int
    pid: int
    kind: str
    obj_name: str
    value: Any
    result: Any


TraceEvent.__dataclass_fields__ = (  # type: ignore[attr-defined]
    _TraceEventFields.__dataclass_fields__  # type: ignore[attr-defined]
)


class TraceRecorder:
    """Collects :class:`TraceEvent` records during a run.

    Recording full traces is optional (it costs memory proportional to the
    number of steps), so the simulator only records when asked.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def for_object(self, obj_name: str) -> List[TraceEvent]:
        """All events touching the named object, in execution order."""
        return [event for event in self.events if event.obj_name == obj_name]

    def for_pid(self, pid: int) -> List[TraceEvent]:
        """All events executed by ``pid``, in execution order."""
        return [event for event in self.events if event.pid == pid]

    def __len__(self) -> int:
        return len(self.events)


def check_register_semantics(events: List[TraceEvent], initial: Any = None) -> None:
    """Verify read/write register semantics along a trace.

    Every ``read`` must return the value of the most recent ``write`` (or the
    initial value if there is none).  Raises
    :class:`ProtocolViolationError` on the first violation.
    """
    current = initial
    for event in events:
        if event.kind == "write":
            current = event.value
        elif event.kind == "read":
            if event.result != current:
                raise ProtocolViolationError(
                    f"register {event.obj_name}: read at step {event.step} "
                    f"returned {event.result!r}, expected {current!r}"
                )


def check_snapshot_semantics(events: List[TraceEvent], n: int) -> None:
    """Verify snapshot semantics along a trace.

    Every ``scan`` must return exactly the vector of latest updates.  That
    equality also makes views nest (the property Lemma 1's proof relies
    on): components are never erased, so a scan that drops a component an
    earlier scan saw returns the wrong vector and is rejected.
    """
    components: List[Any] = [None] * n
    for event in events:
        if event.kind == "update":
            components[event.pid] = event.value
        elif event.kind == "scan":
            expected = tuple(components)
            if tuple(event.result) != expected:
                raise ProtocolViolationError(
                    f"snapshot {event.obj_name}: scan at step {event.step} "
                    f"returned {event.result!r}, expected {expected!r}"
                )


def check_max_register_semantics(events: List[TraceEvent]) -> None:
    """Verify max-register semantics: reads return the running maximum."""
    current: Any = None
    for event in events:
        if event.kind == "maxwrite":
            if current is None or event.value > current:
                current = event.value
        elif event.kind == "maxread":
            if event.result != current:
                raise ProtocolViolationError(
                    f"max register {event.obj_name}: read at step {event.step} "
                    f"returned {event.result!r}, expected {current!r}"
                )
