"""Structured trace recording as a simulator step hook.

:class:`TraceRecorder` subclasses :class:`~repro.runtime.hooks.StepHook`
(the PR 2 protocol), so it attaches to any run via the ordinary ``hooks=``
argument and observes exactly what every other hook observes — charged
steps, injected crashes, withheld slots, completions, and run boundaries.
It converts each into a versioned :class:`~repro.obs.events.TraceEventRecord`.

Cost model: a run without the recorder attached executes no tracing code
whatsoever (the step loop calls each hook callback only on the hooks that
override it), and an attached recorder costs only the callbacks it
overrides — it has no ``before_step`` or ``intercept``.  An attached
recorder keeps every event, always: the trace analytics in
:mod:`repro.obs.analyze` count steps and adoptions from it, so a trace
that dropped events would undercount without saying so.

Protocol-level milestones (persona adoption, round transitions) are not
visible at the shared-memory interface, so they cannot be captured at step
granularity without instrumenting every protocol.  Instead,
:meth:`TraceRecorder.annotate_conciliator` derives them after a run from
the round bookkeeping every :class:`~repro.core.conciliator.Conciliator`
already keeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Union

from repro.errors import ConfigurationError
from repro.obs.events import (
    OPERATION_EVENT_KINDS,
    TraceEventRecord,
    write_trace_jsonl,
)
from repro.runtime.hooks import StepHook
from repro.runtime.operations import Operation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.core.conciliator import Conciliator
    from repro.runtime.results import RunResult
    from repro.runtime.simulator import Simulator

__all__ = ["TraceRecorder"]


def _jsonable(value: Any) -> Any:
    """Coerce a traced value into something JSON-representable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class TraceRecorder(StepHook):
    """Record every structured, versioned trace event of a run."""

    def __init__(self) -> None:
        self._events: List[TraceEventRecord] = []

    # ----- access ----------------------------------------------------------

    @property
    def events(self) -> List[TraceEventRecord]:
        """The recorded events, in recording order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events_of_kind(self, kind: str) -> List[TraceEventRecord]:
        """Recorded events of one kind, in recording order."""
        return [event for event in self._events if event.kind == kind]

    def to_jsonl(self, path: Union[str, "Path"]) -> int:
        """Write the recorded events as JSONL; returns the count written."""
        return write_trace_jsonl(self._events, path)

    # ----- StepHook interface ----------------------------------------------

    def on_run_start(self, simulator: "Simulator") -> None:
        self._events.append(TraceEventRecord(
            kind="run-start",
            payload={"n": simulator.n, "step_limit": simulator.step_limit},
        ))

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        payload = {"obj": operation.obj.name, "op": operation.kind}
        value = getattr(operation, "value", None)
        if value is not None:
            payload["value"] = _jsonable(value)
        if result is not None:
            payload["result"] = _jsonable(result)
        self._events.append(TraceEventRecord(
            kind=OPERATION_EVENT_KINDS.get(operation.kind, "step"),
            step=step_index, pid=pid, payload=payload,
        ))

    def on_skip(self, pid: int, global_steps: int) -> None:
        self._events.append(TraceEventRecord(
            kind="stall", step=global_steps, pid=pid,
        ))

    def on_crash(self, pid: int, steps_taken: int) -> None:
        self._events.append(TraceEventRecord(
            kind="crash", pid=pid, payload={"steps_taken": steps_taken},
        ))

    def on_finish(self, pid: int, output: Any) -> None:
        self._events.append(TraceEventRecord(
            kind="finish", pid=pid, payload={"output": _jsonable(output)},
        ))

    def on_run_end(self, result: "RunResult") -> None:
        self._events.append(TraceEventRecord(
            kind="run-end",
            payload={
                "completed": result.completed,
                "total_steps": result.total_steps,
                "max_individual_steps": result.max_individual_steps,
                "crashed": sorted(result.crashed),
            },
        ))

    # ----- protocol milestones ---------------------------------------------

    def _emit_adoption(
        self, round_number: int, pid: int, persona: Any, protocol: str
    ) -> None:
        self._events.append(TraceEventRecord(
            kind="persona-adoption", pid=pid,
            payload={
                "round": round_number,
                "persona": _jsonable(persona),
                "origin": getattr(persona, "origin", None),
                "protocol": protocol,
                "value": _jsonable(getattr(persona, "value", None)),
                "coin": getattr(persona, "coin", None),
            },
        ))

    def annotate_conciliator(self, conciliator: "Conciliator") -> int:
        """Derive persona-adoption and round-transition events post-run.

        Round bookkeeping is local to each process (free in the step
        measure), so these events carry no ``step`` index; they describe
        the protocol's logical progress, ordered by round.  Returns the
        number of events appended.

        Algorithm 3 (:class:`~repro.core.cil_embedded.CILEmbeddedConciliator`)
        keeps no outer-loop bookkeeping — its rounds live in the embedded
        inner conciliator — so annotation descends into ``.inner`` when the
        outer object recorded nothing.  A conciliator with no bookkeeping
        anywhere (an unknown program shape, or one that never ran) raises
        :class:`~repro.errors.ConfigurationError` instead of silently
        emitting nothing: an empty annotation would read as "no adoptions
        happened", which is never true of a completed run.
        """
        from repro.core.conciliator import Conciliator

        if not isinstance(conciliator, Conciliator):
            raise ConfigurationError(
                f"annotate_conciliator needs a Conciliator, got "
                f"{type(conciliator).__name__}"
            )
        target = conciliator
        while not target._initial and not target._after_round:
            inner = getattr(target, "inner", None)
            if not isinstance(inner, Conciliator):
                raise ConfigurationError(
                    f"conciliator {conciliator.name!r} "
                    f"({type(conciliator).__name__}) has no round "
                    f"bookkeeping to annotate: unknown program shape, or "
                    f"the conciliator never ran"
                )
            target = inner
        protocol = target.name
        appended = 0
        for pid in sorted(target._initial):
            self._emit_adoption(0, pid, target._initial[pid], protocol)
            appended += 1
        after_round = target._after_round
        for round_index in sorted(after_round):
            holders = after_round[round_index]
            survivors = target.survivors_after_round(round_index)
            self._events.append(TraceEventRecord(
                kind="round-transition",
                payload={
                    "round": round_index,
                    "survivors": survivors,
                    "protocol": protocol,
                },
            ))
            appended += 1
            for pid in sorted(holders):
                self._emit_adoption(
                    round_index + 1, pid, holders[pid], protocol
                )
                appended += 1
        return appended
