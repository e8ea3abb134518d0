"""Register-model semantics: atomic, regular, and safe read resolution.

The paper proves its ``1 - ε`` agreement floors over *atomic* registers.
This module weakens that assumption declaratively, following the
Lamport hierarchy as sharpened by Hadzilacos–Hu–Toueg: a **regular**
register read that is concurrent with a write may return either the old
or the new value, and a **safe** register read that is concurrent with a
write may return *anything* the register could ever hold.

The simulator executes operations sequentially, so "concurrent" needs a
deterministic surrogate.  The one used here: every write to an object
opens a *contention window* covering the next ``window`` reads of that
object; a read inside the window issued by a process other than the
writer counts as concurrent with the write (a reader is never concurrent
with its own last write — read-your-writes is preserved under every
model).  Whether a concurrent read actually resolves old (or, for safe
registers, arbitrary) is decided by a seeded coin with probability
``p_old``, so a weakened run remains a pure function of
``(programs, inputs, schedule, seed tree, model)``.

A :class:`RegisterModel` is the declarative spec — a frozen, hashable,
versioned-JSON value object exactly like
:class:`~repro.workloads.schedules.ScheduleSpec` — and
:meth:`RegisterModel.resolver` builds the per-run stateful policy.  The
policy is *applied* inside the shared-memory objects themselves
(:class:`~repro.memory.register.AtomicRegister`,
:class:`~repro.memory.max_register.MaxRegister`,
:class:`~repro.memory.snapshot.SnapshotObject` all consult a bound
resolver on reads), and :class:`SemanticsInjector` is the step hook that
binds the resolver onto every shared object a run touches — including
registers allocated privately inside a protocol stack.

This layer also subsumes the ad-hoc ``stale-read``
:class:`~repro.runtime.faults.RegisterFault` from the fault-injection
substrate: :func:`stale_value` is the single definition of "the value a
one-step-stale regular read serves", and the fault injector delegates to
it, so old fault plans reproduce byte-identical outcomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.runtime.faults import StepHook
from repro.runtime.operations import Operation

__all__ = [
    "REGISTER_MODEL_KINDS",
    "RegisterModel",
    "SemanticsInjector",
    "SemanticsResolver",
    "stale_value",
]

#: Recognized register-model kinds, weakest-last.
ATOMIC = "atomic"
REGULAR = "regular"
SAFE = "safe"
REGISTER_MODEL_KINDS = (ATOMIC, REGULAR, SAFE)


def stale_value(history: Sequence[Any]) -> Any:
    """The value a one-step-stale regular read serves.

    ``history`` is the ordered list of values written to the register; a
    stale read returns the value the register held *before* its most
    recent write, or ``None`` when that value is unknown (fewer than two
    writes observed).  This is the exact rule the PR 2 ``stale-read``
    :class:`~repro.runtime.faults.RegisterFault` has always applied; the
    fault injector now delegates here so the definition lives with the
    rest of the register-model semantics.
    """
    return history[-2] if len(history) >= 2 else None


@dataclass(frozen=True)
class RegisterModel:
    """A declarative, seeded register-semantics spec.

    Attributes:
        kind: ``"atomic"`` (reads always return the last write),
            ``"regular"`` (a read concurrent with a write may return the
            old value), or ``"safe"`` (a read concurrent with a write
            may return any value the register ever held, including its
            initial value).
        seed: private seed for the resolution coin; independent of
            algorithm and adversary seeds.
        p_old: probability that a read inside a contention window
            resolves weakly instead of returning the current value.
        window: how many subsequent reads of an object each write's
            contention window covers (the sequential surrogate for
            "concurrent with the write").
    """

    kind: str = ATOMIC
    seed: int = 0
    p_old: float = 0.5
    window: int = 1

    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        if self.kind not in REGISTER_MODEL_KINDS:
            raise ConfigurationError(
                f"unknown register model kind {self.kind!r}; choose from "
                f"{REGISTER_MODEL_KINDS}"
            )
        if not 0.0 <= self.p_old <= 1.0:
            raise ConfigurationError(
                f"p_old must be in [0, 1], got {self.p_old}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {self.window}"
            )

    @property
    def is_atomic(self) -> bool:
        """True when this model cannot produce weak reads."""
        return self.kind == ATOMIC

    def resolver(self) -> "SemanticsResolver":
        """Build a fresh per-run stateful resolution policy."""
        return SemanticsResolver(self)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self._JSON_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "p_old": self.p_old,
            "window": self.window,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RegisterModel":
        expect_versioned(
            data, "register model", cls._JSON_VERSION, key="version"
        )
        return cls(
            kind=str(data["kind"]),
            seed=int(data.get("seed", 0)),
            p_old=float(data.get("p_old", 0.5)),
            window=int(data.get("window", 1)),
        )


class _CellState:
    """Per-register (or per-snapshot-component) resolution bookkeeping."""

    __slots__ = ("last_writer", "observers", "old_value",
                 "reads_since_write", "values")

    def __init__(self) -> None:
        self.last_writer: Optional[int] = None
        #: Pids whose reads must resolve atomically inside the current
        #: window: the writer itself, plus any process whose completed
        #: (possibly no-op) write proves it already observed the current
        #: value — read-your-writes survives every weakening.
        self.observers: Set[int] = set()
        self.old_value: Any = None
        self.reads_since_write = 0
        self.values: List[Any] = []


class SemanticsResolver:
    """Per-run stateful read-resolution policy for one :class:`RegisterModel`.

    Shared objects call :meth:`note_write` on every applied write and
    :meth:`resolve_read` on every read; cells are keyed by a caller-chosen
    string (object name, or ``name[i]`` for snapshot components).  All
    weak resolutions are drawn from a private ``random.Random(seed)``, so
    the resolution sequence is a pure function of the operation sequence.
    """

    def __init__(self, model: RegisterModel):
        self.model = model
        self._rng = random.Random(model.seed)
        self._cells: Dict[str, _CellState] = {}
        #: (cell, reader pid, served value) for every weak resolution.
        self.weak_reads: List[Any] = []

    def _cell(self, key: str) -> _CellState:
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _CellState()
        return cell

    def note_write(self, key: str, pid: int, old_value: Any,
                   new_value: Any) -> None:
        """Record a write: ``old_value`` is the cell's value pre-write."""
        cell = self._cell(key)
        cell.last_writer = pid
        cell.observers = {pid}
        cell.old_value = old_value
        cell.reads_since_write = 0
        if not cell.values or cell.values[-1] != new_value:
            cell.values.append(new_value)

    def note_observed(self, key: str, pid: int) -> None:
        """Record that ``pid`` has provably observed the cell's current
        value (e.g. its no-op max-register write completed against it);
        its reads in the current window resolve atomically."""
        self._cell(key).observers.add(pid)

    def resolve_read(self, key: str, pid: int, current: Any,
                     initial: Any = None) -> Any:
        """The value this read observes under the model.

        ``current`` is what an atomic read would return; ``initial`` is
        the cell's initial value (the safe model may resurface it).
        """
        cell = self._cells.get(key)
        if cell is None or cell.last_writer is None:
            return current  # no write observed: nothing to be stale against
        in_window = cell.reads_since_write < self.model.window
        cell.reads_since_write += 1
        if not in_window or pid in cell.observers:
            return current
        if self.model.kind == REGULAR:
            if self._rng.random() < self.model.p_old:
                self.weak_reads.append((key, pid, cell.old_value))
                return cell.old_value
            return current
        if self.model.kind == SAFE:
            if self._rng.random() < self.model.p_old:
                domain = [initial, cell.old_value, *cell.values]
                served = domain[self._rng.randrange(len(domain))]
                self.weak_reads.append((key, pid, served))
                return served
            return current
        return current


class SemanticsInjector(StepHook):
    """Step hook distributing one resolver to every object a run touches.

    Protocol stacks allocate registers privately, so the harness cannot
    enumerate them up front; instead this hook inspects each scheduled
    operation's target object and binds the run's resolver the first time
    the object appears.  Objects that do not support weakened semantics
    (no ``bind_semantics`` method) are left untouched.
    """

    def __init__(self, model: RegisterModel):
        self.model = model
        self.resolver = model.resolver()
        self._bound: Set[int] = set()

    def before_step(self, pid: int, process_steps: int, global_steps: int,
                    operation: Optional[Operation]) -> Optional[str]:
        if operation is not None:
            obj = operation.obj
            if id(obj) not in self._bound:
                self._bound.add(id(obj))
                bind = getattr(obj, "bind_semantics", None)
                if bind is not None:
                    bind(self.resolver)
        return None
