"""Structured trace recording as a simulator step hook.

:class:`TraceRecorder` subclasses :class:`~repro.runtime.faults.StepHook`
(the PR 2 protocol), so it attaches to any run via the ordinary ``hooks=``
argument and observes exactly what every other hook observes — charged
steps, injected crashes, withheld slots, completions, and run boundaries.
It converts each into a versioned :class:`~repro.obs.events.TraceEventRecord`.

Cost model:

- **Not attached** (the default): zero cost.  The step loop calls each
  hook callback only on the hooks that override it, so a run without
  observers executes no tracing code whatsoever, and an attached recorder
  costs only the callbacks it overrides (it has no ``before_step`` or
  ``intercept``).
- **Attached, ring buffer**: ``capacity=k`` keeps only the most recent
  ``k`` events in a ``deque`` — constant memory for arbitrarily long runs,
  ideal for "what happened just before the violation" forensics.
- **Attached, sampling**: ``sample_every=k`` records every ``k``-th step
  event (lifecycle events — crash, stall, finish, run boundaries — are
  always recorded; they are rare and carry the causal skeleton).
- **Attached, pid sampling** (the million-process mode): per-process
  lifecycle events stop being "rare" once there are :math:`10^6`
  processes — every pid emits at least a ``finish`` — so
  ``pid_sample_every=k`` restricts *all* per-pid events (steps and
  lifecycle alike) to the strided pid subset ``{0, k, 2k, ...}``, and
  ``pid_reservoir=m`` with ``reservoir_seed`` keeps a seeded
  pseudo-random subset of at most ``m`` pids instead (drawn once per run
  from the run's ``n``; deterministic given the seed).  Run boundaries
  (``run-start`` / ``run-end``) are always recorded — they carry the
  whole-run accounting.  The two pid filters are mutually exclusive.

Protocol-level milestones (persona adoption, round transitions) are not
visible at the shared-memory interface, so they cannot be captured at step
granularity without instrumenting every protocol.  Instead,
:meth:`TraceRecorder.annotate_conciliator` derives them after a run from
the round bookkeeping every :class:`~repro.core.conciliator.Conciliator`
already keeps.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.events import (
    OPERATION_EVENT_KINDS,
    TraceEventRecord,
    write_trace_jsonl,
)
from repro.runtime.faults import StepHook
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
    """Record structured, versioned trace events during a run.

    Args:
        capacity: ring-buffer size; ``None`` keeps every recorded event.
        sample_every: record every ``k``-th step event (1 = all).
            Lifecycle events are exempt from this *step* sampling.
        pid_sample_every: restrict every per-pid event (steps *and*
            lifecycle) to pids divisible by ``k`` (1 = all pids).  This is
            what keeps observability affordable at millions of processes,
            where even one ``finish`` event per pid is a gigabyte.
        pid_reservoir: instead of a stride, keep a seeded pseudo-random
            subset of at most this many pids, drawn once per run from the
            run's process count (``random.Random(reservoir_seed).sample``),
            so the retained pids are unbiased in pid order yet exactly
            reproducible.  Mutually exclusive with ``pid_sample_every``.
        reservoir_seed: seed for the reservoir draw (default 0).
        include_values: include written values and results in payloads
            (True by default; disable to shrink traces of value-heavy
            protocols while keeping the step/object skeleton).

    Run boundaries (``run-start`` / ``run-end``) are never pid-sampled;
    events recorded before any run starts (externally emitted milestones)
    pass the reservoir filter untouched, because the population is not
    known until ``on_run_start``.
    """

    def __init__(
        self,
        *,
        capacity: Optional[int] = None,
        sample_every: int = 1,
        pid_sample_every: int = 1,
        pid_reservoir: Optional[int] = None,
        reservoir_seed: int = 0,
        include_values: bool = True,
    ):
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1 (or None), got {capacity}"
            )
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        if pid_sample_every < 1:
            raise ConfigurationError(
                f"pid_sample_every must be >= 1, got {pid_sample_every}"
            )
        if pid_reservoir is not None:
            if pid_reservoir < 1:
                raise ConfigurationError(
                    f"pid_reservoir must be >= 1 (or None), got "
                    f"{pid_reservoir}"
                )
            if pid_sample_every != 1:
                raise ConfigurationError(
                    "pid_sample_every and pid_reservoir are mutually "
                    "exclusive pid filters; set at most one"
                )
        self.capacity = capacity
        self.sample_every = sample_every
        self.pid_sample_every = pid_sample_every
        self.pid_reservoir = pid_reservoir
        self.reservoir_seed = reservoir_seed
        self.include_values = include_values
        self._reservoir: Optional[frozenset] = None
        self._events: Deque[TraceEventRecord] = deque(maxlen=capacity)
        self._step_events_seen = 0
        #: Events recorded (post-sampling) over the recorder's lifetime,
        #: even those since evicted from a full ring buffer.
        self.recorded_total = 0
        #: Step events observed before sampling, for sampling diagnostics.
        self.steps_observed = 0
        #: Per-pid events dropped by the pid filter, for diagnostics.
        self.pid_events_dropped = 0
        #: Events evicted from a full ring buffer to make room.  Nonzero
        #: means "the trace you are reading is a suffix": the events were
        #: recorded, then aged out — distinct from ``pid_events_dropped``,
        #: which counts events the filters never recorded at all.
        self.ring_dropped = 0

    # ----- access ----------------------------------------------------------

    @property
    def events(self) -> List[TraceEventRecord]:
        """The retained events, in recording order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events_of_kind(self, kind: str) -> List[TraceEventRecord]:
        """Retained events of one kind, in recording order."""
        return [event for event in self._events if event.kind == kind]

    def to_jsonl(self, path: Union[str, "Path"]) -> int:
        """Write the retained events as JSONL; returns the count written."""
        return write_trace_jsonl(self._events, path)

    # ----- recording -------------------------------------------------------

    def _record(self, event: TraceEventRecord) -> None:
        if self.capacity is not None and len(self._events) == self.capacity:
            self.ring_dropped += 1
        self._events.append(event)
        self.recorded_total += 1

    def metadata(self) -> dict:
        """Retention counters, for trace headers and ``repro explain``.

        ``recorded_total`` - ``ring_dropped`` == ``retained`` always
        holds; ``steps_observed`` and ``pid_events_dropped`` say how much
        the sampling filters discarded *before* recording.
        """
        return {
            "recorded_total": self.recorded_total,
            "retained": len(self._events),
            "steps_observed": self.steps_observed,
            "ring_dropped": self.ring_dropped,
            "pid_events_dropped": self.pid_events_dropped,
        }

    def emit(self, event: TraceEventRecord) -> None:
        """Record an externally built event (protocol milestones, tests)."""
        self._record(event)

    # ----- pid sampling -----------------------------------------------------

    def _pid_sampled(self, pid: int) -> bool:
        """True when ``pid``'s events should be retained."""
        if self.pid_reservoir is not None:
            if self._reservoir is None:
                return True  # population unknown before the run starts
            return pid in self._reservoir
        return pid % self.pid_sample_every == 0

    @property
    def sampled_pids(self) -> Optional[frozenset]:
        """The reservoir pid set once a run has started (else ``None``)."""
        return self._reservoir

    # ----- StepHook interface ----------------------------------------------

    def on_run_start(self, simulator: "Simulator") -> None:
        if self.pid_reservoir is not None:
            import random

            population = simulator.n
            size = min(self.pid_reservoir, population)
            self._reservoir = frozenset(
                random.Random(self.reservoir_seed).sample(
                    range(population), size
                )
            )
        self._record(TraceEventRecord(
            kind="run-start",
            payload={"n": simulator.n, "step_limit": simulator.step_limit},
        ))

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        self.steps_observed += 1
        if not self._pid_sampled(pid):
            self.pid_events_dropped += 1
            self._step_events_seen += 1
            return
        if self._step_events_seen % self.sample_every == 0:
            kind = OPERATION_EVENT_KINDS.get(operation.kind, "step")
            payload = {"obj": operation.obj.name, "op": operation.kind}
            if self.include_values:
                value = getattr(operation, "value", None)
                if value is not None:
                    payload["value"] = _jsonable(value)
                if result is not None:
                    payload["result"] = _jsonable(result)
            self._record(TraceEventRecord(
                kind=kind, step=step_index, pid=pid, payload=payload,
            ))
        self._step_events_seen += 1

    def on_skip(self, pid: int, global_steps: int) -> None:
        if not self._pid_sampled(pid):
            self.pid_events_dropped += 1
            return
        self._record(TraceEventRecord(
            kind="stall", step=global_steps, pid=pid,
        ))

    def on_crash(self, pid: int, steps_taken: int) -> None:
        if not self._pid_sampled(pid):
            self.pid_events_dropped += 1
            return
        self._record(TraceEventRecord(
            kind="crash", pid=pid, payload={"steps_taken": steps_taken},
        ))

    def on_finish(self, pid: int, output: Any) -> None:
        if not self._pid_sampled(pid):
            self.pid_events_dropped += 1
            return
        payload = {}
        if self.include_values:
            payload["output"] = _jsonable(output)
        self._record(TraceEventRecord(kind="finish", pid=pid, payload=payload))

    def on_run_end(self, result: "RunResult") -> None:
        self._record(TraceEventRecord(
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
        payload: dict = {
            "round": round_number,
            "persona": _jsonable(persona),
            "origin": getattr(persona, "origin", None),
            "protocol": protocol,
        }
        if self.include_values:
            payload["value"] = _jsonable(getattr(persona, "value", None))
            payload["coin"] = getattr(persona, "coin", None)
        self._record(TraceEventRecord(
            kind="persona-adoption", pid=pid, payload=payload,
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
        for round_index in sorted(target._after_round):
            holders = target._after_round[round_index]
            survivors = target.survivors_after_round(round_index)
            self._record(TraceEventRecord(
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
