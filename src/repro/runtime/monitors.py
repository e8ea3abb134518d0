"""Inline invariant monitors: check safety/liveness properties as runs execute.

Monitors are :class:`~repro.runtime.hooks.StepHook` subclasses that watch
every charged step and every process completion, and flag violations of the
properties the paper proves:

- :class:`ValidityMonitor` — every decided value is some process's input
  (validity, Theorems 1-3);
- :class:`AdoptCommitCoherenceMonitor` — once any process commits ``v``,
  every other process leaves the object with value ``v`` (coherence,
  Section 1.2);
- :class:`WaitFreedomWatchdog` — every surviving (non-crashed) process
  decides within its step budget, the operational reading of wait-freedom;
- :class:`RegisterSemanticsMonitor` — a read of an atomic register returns
  the most recently written value.  Always true in the simulator's
  sequential execution, so any violation proves an *injected* out-of-model
  fault (or a broken object emulation) reached the protocol — this is the
  detector the lossy/stale :class:`~repro.runtime.faults.RegisterFault`
  calibration faults must trip.

In ``strict`` mode (the default) a violation raises
:class:`~repro.errors.ProtocolViolationError` at the offending step, so the
failing execution halts while its state is still inspectable.  With
``strict=False`` violations are recorded on ``monitor.violations`` and the
run continues — the mode fault sweeps use to count how often an invariant
breaks across trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.runtime.hooks import StepHook
from repro.runtime.operations import Operation, Read, Write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.simulator import Simulator

__all__ = [
    "AdoptCommitCoherenceMonitor",
    "InvariantMonitor",
    "InvariantViolation",
    "RegisterSemanticsMonitor",
    "ValidityMonitor",
    "WaitFreedomWatchdog",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant breach."""

    monitor: str
    pid: Optional[int]
    message: str

    def __str__(self) -> str:
        subject = f"pid {self.pid}: " if self.pid is not None else ""
        return f"[{self.monitor}] {subject}{self.message}"


class InvariantMonitor(StepHook):
    """Base class: violation bookkeeping shared by every monitor.

    ``metrics`` optionally names a
    :class:`~repro.obs.metrics.MetricsRegistry`; every violation then also
    increments ``monitor.violations{monitor=<name>}``, so lenient-mode
    sweeps produce inspectable numbers instead of only exception notes.
    """

    name = "invariant"

    def __init__(self, *, strict: bool = True, metrics: Optional[Any] = None):
        self.strict = strict
        self.metrics = metrics
        self.violations: List[InvariantViolation] = []

    @property
    def ok(self) -> bool:
        """True while no violation has been observed."""
        return not self.violations

    def _violate(self, message: str, pid: Optional[int] = None) -> None:
        violation = InvariantViolation(self.name, pid, message)
        self.violations.append(violation)
        if self.metrics is not None:
            self.metrics.counter("monitor.violations", monitor=self.name).inc()
        if self.strict:
            raise ProtocolViolationError(str(violation))


class ValidityMonitor(InvariantMonitor):
    """Every finished process's output must be one of the allowed inputs."""

    name = "validity"

    def __init__(
        self,
        allowed_inputs: Iterable[Any],
        *,
        strict: bool = True,
        metrics: Optional[Any] = None,
    ):
        super().__init__(strict=strict, metrics=metrics)
        self.allowed = list(allowed_inputs)

    def on_finish(self, pid: int, output: Any) -> None:
        # Duck-typed unwrap for adopt-commit style outputs carrying .value.
        value = getattr(output, "value", output) if hasattr(output, "committed") else output
        if not any(value == allowed for allowed in self.allowed):
            self._violate(
                f"decided {value!r}, which is not among the inputs "
                f"{self.allowed!r}",
                pid=pid,
            )


class AdoptCommitCoherenceMonitor(InvariantMonitor):
    """If any process commits ``v``, every outcome must carry value ``v``.

    Expects process outputs shaped like
    :class:`repro.adoptcommit.base.AdoptCommitResult` (duck-typed on the
    ``committed``/``value`` attributes); outputs without those attributes
    are ignored, so the monitor can ride along runs whose processes return
    bare values.
    """

    name = "adopt-commit-coherence"

    def __init__(self, *, strict: bool = True, metrics: Optional[Any] = None):
        super().__init__(strict=strict, metrics=metrics)
        self._committed: Dict[int, Any] = {}
        self._outcomes: Dict[int, Any] = {}

    def on_finish(self, pid: int, output: Any) -> None:
        if not hasattr(output, "committed") or not hasattr(output, "value"):
            return
        self._outcomes[pid] = output.value
        if output.committed:
            self._committed[pid] = output.value
        committed_values = set(self._committed.values())
        if len(committed_values) > 1:
            self._violate(
                f"two different values committed: {sorted(map(repr, committed_values))}",
                pid=pid,
            )
            return
        if committed_values:
            (winner,) = committed_values
            for other_pid, value in self._outcomes.items():
                if value != winner:
                    self._violate(
                        f"pid {other_pid} left with {value!r} although "
                        f"{winner!r} was committed",
                        pid=pid,
                    )
                    return


class WaitFreedomWatchdog(InvariantMonitor):
    """Every surviving process must decide within ``step_budget`` steps.

    Crashed processes are exempt (they are the faults, not the victims of
    them); a survivor that exceeds the budget without finishing is exactly
    a wait-freedom violation under the run's schedule.

    With a ``metrics`` registry attached, the watchdog also reports what
    it observed — ``monitor.wait_freedom.steps_to_decide`` (histogram,
    per finished process), ``monitor.wait_freedom.undecided_steps``
    (histogram, per process left undecided at run end), and
    ``monitor.wait_freedom.step_budget`` (the configured budget) — so a
    lenient-mode sweep yields inspectable numbers, not just exception
    notes.
    """

    name = "wait-freedom"

    def __init__(
        self,
        step_budget: int,
        *,
        strict: bool = True,
        metrics: Optional[Any] = None,
    ):
        super().__init__(strict=strict, metrics=metrics)
        if step_budget < 1:
            raise ConfigurationError(
                f"step_budget must be >= 1, got {step_budget}"
            )
        self.step_budget = step_budget
        self._steps: Dict[int, int] = {}
        self._finished: Set[int] = set()
        self._crashed: Set[int] = set()
        self._flagged: Set[int] = set()

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        count = self._steps.get(pid, 0) + 1
        self._steps[pid] = count
        if (
            count > self.step_budget
            and pid not in self._finished
            and pid not in self._crashed
            and pid not in self._flagged
        ):
            self._flagged.add(pid)
            self._violate(
                f"executed {count} steps without deciding "
                f"(budget {self.step_budget})",
                pid=pid,
            )

    def on_run_start(self, simulator: "Simulator") -> None:
        if self.metrics is not None:
            self.metrics.counter("monitor.wait_freedom.step_budget").inc(
                self.step_budget
            )

    def on_finish(self, pid: int, output: Any) -> None:
        self._finished.add(pid)
        if self.metrics is not None:
            self.metrics.histogram(
                "monitor.wait_freedom.steps_to_decide"
            ).observe(self._steps.get(pid, 0))

    def on_crash(self, pid: int, steps_taken: int) -> None:
        self._crashed.add(pid)

    def on_run_end(self, result: Any) -> None:
        if self.metrics is None:
            return
        for pid, count in sorted(self._steps.items()):
            if pid in self._finished or pid in self._crashed:
                continue
            self.metrics.histogram(
                "monitor.wait_freedom.undecided_steps"
            ).observe(count)


class RegisterSemanticsMonitor(InvariantMonitor):
    """Reads of registers must return a value their declared model allows.

    With no declared model (the default), registers are atomic: a read
    must return the last value written.  The simulator executes operations
    sequentially, so for genuine atomic registers this invariant holds by
    construction; a violation therefore proves that an out-of-model fault
    (lossy write, stale read) or a broken object emulation altered what
    the protocol observed.

    Passing ``model=`` (a :class:`~repro.memory.semantics.RegisterModel`)
    calibrates the monitor to a *declared* weakening: it mirrors the
    resolver's contention-window bookkeeping, so reads the model permits
    (the pre-write value, inside the window, by a non-writer) stay silent
    while reads the model does **not** permit — staleness outside the
    window, a writer failing to read its own write, a value that was never
    written at all — still fire.  Under a declared ``safe`` model,
    in-window contended reads are unchecked (safe registers may return
    anything), but out-of-window reads remain held to atomicity.

    Objects are tracked by name from the first write the monitor sees;
    reads before any observed write are unchecked (the initial value is
    unknown to the monitor).
    """

    name = "register-semantics"

    def __init__(
        self,
        *,
        strict: bool = True,
        metrics: Optional[Any] = None,
        model: Optional[Any] = None,
    ):
        super().__init__(strict=strict, metrics=metrics)
        if model is not None and getattr(model, "is_atomic", False):
            model = None  # a declared atomic model is the default contract
        self.model = model
        self._last_write: Dict[str, Any] = {}
        self._previous_write: Dict[str, Any] = {}
        self._last_writer: Dict[str, int] = {}
        self._reads_since_write: Dict[str, int] = {}

    def _allowed(self, name: str, pid: int, result: Any) -> bool:
        """Whether ``result`` is permitted for this read under the model."""
        expected = self._last_write[name]
        if result == expected:
            return True
        if self.model is None:
            return False
        in_window = self._reads_since_write[name] < self.model.window
        contended = in_window and self._last_writer[name] != pid
        if not contended:
            return False
        if self.model.kind == "safe":
            return True  # anything goes inside a safe contention window
        # Regular: only the immediately-previous value is permitted, and
        # only when the monitor has seen that value written (an unknown
        # pre-first-write value is represented as an absent key, in which
        # case the old value is the unknown initial and goes unchecked).
        if name not in self._previous_write:
            return True
        return bool(result == self._previous_write[name])

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        name = operation.obj.name
        if isinstance(operation, Write):
            if name in self._last_write:
                self._previous_write[name] = self._last_write[name]
            self._last_write[name] = operation.value
            self._last_writer[name] = pid
            self._reads_since_write[name] = 0
        elif isinstance(operation, Read) and name in self._last_write:
            if not self._allowed(name, pid, result):
                declared = (
                    "atomic" if self.model is None else self.model.kind
                )
                self._violate(
                    f"read of {name!r} returned {result!r} but the last "
                    f"write was {self._last_write[name]!r} — {declared} "
                    "register semantics violated",
                    pid=pid,
                )
            self._reads_since_write[name] = (
                self._reads_since_write.get(name, 0) + 1
            )
