"""Declarative fault injection for simulated runs.

The paper's wait-freedom guarantees are claims about *hostile* executions:
processes may crash at any point, be starved for arbitrarily long windows,
and the survivors must still terminate.  This module turns those hostile
conditions into first-class, declarative experiment inputs instead of
ad-hoc schedule constructions:

- :class:`CrashFault` — fail-stop a chosen process after a chosen number of
  charged steps (in-model: equivalent to the adversary never scheduling the
  process again);
- :class:`StallFault` — starve a process for a window of the execution
  (in-model: the adversary withholds its slots);
- :class:`RegisterFault` — **out-of-model** register misbehaviour (lossy
  writes, stale reads) used to prove that the invariant monitors in
  :mod:`repro.runtime.monitors` catch real bugs.  Because these faults step
  outside the atomic-register model the paper assumes, a
  :class:`FaultPlan` containing them must be constructed with
  ``allow_out_of_model=True``; experiments using them are detector
  calibration, never reproduction evidence.

A :class:`FaultPlan` is immutable and reusable; :meth:`FaultPlan.injector`
builds a fresh stateful :class:`FaultInjector` (a :class:`StepHook`) for
each run, which the :class:`~repro.runtime.simulator.Simulator` consults at
every scheduled slot.  Crash and stall triggers are functions of charged
step counts only, so a faulted run remains a deterministic function of
``(programs, inputs, schedule, seed tree, plan)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.runtime.operations import Operation, Read, Write

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.runtime.results import RunResult
    from repro.runtime.simulator import Simulator

__all__ = [
    "CRASH",
    "EXECUTE",
    "HOOK_STAGES",
    "SKIP",
    "CrashFault",
    "FaultInjector",
    "FaultPlan",
    "InterceptedResult",
    "RegisterFault",
    "ResponseDelayFault",
    "ServiceFaultController",
    "ServiceFaultPlan",
    "ShardBlackoutFault",
    "StallFault",
    "StepHook",
    "WorkerKillFault",
    "hook_methods",
]

# Slot decisions a hook may return from :meth:`StepHook.before_step`.
EXECUTE = "execute"
SKIP = "skip"
CRASH = "crash"


class StepHook:
    """Observer/interceptor interface the simulator consults at every step.

    Fault injectors and invariant monitors both subclass this.  All methods
    are no-ops by default, and overriding a method is how a hook subscribes
    to it: at run start the step loops keep, per callback, only the hooks
    whose method is not the default here (see :func:`hook_methods`), so a
    hook pays for the callbacks it overrides and nothing else.  Hooks
    must not touch shared objects directly: they observe operations and
    results, and may only influence execution through the documented return
    values (``before_step`` slot decisions and ``intercept`` overrides).
    """

    def on_run_start(self, simulator: "Simulator") -> None:
        """Called once before the first slot is consumed."""

    def before_step(
        self,
        pid: int,
        process_steps: int,
        global_steps: int,
        operation: Optional[Operation],
    ) -> Optional[str]:
        """Decide what happens to this slot.

        Args:
            pid: the scheduled process.
            process_steps: charged steps ``pid`` has executed so far.
            global_steps: charged steps executed by everyone so far.
            operation: the operation ``pid`` would execute.

        Returns ``None`` (or :data:`EXECUTE`) to let the step run,
        :data:`SKIP` to withhold the slot (starvation), or :data:`CRASH` to
        fail-stop the process permanently.
        """
        return None

    def intercept(
        self, pid: int, operation: Operation
    ) -> Optional["InterceptedResult"]:
        """Optionally replace the operation's execution entirely.

        Returning an :class:`InterceptedResult` prevents the target object
        from being touched and delivers ``.value`` to the process instead —
        this is how out-of-model register faults are realized.  Returning
        ``None`` executes the operation normally.
        """
        return None

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        """Called after each charged step with the (possibly faulty) result."""

    def on_skip(self, pid: int, global_steps: int) -> None:
        """Called when a slot is withheld (stalled) by fault injection.

        Free no-op slots of finished or crashed processes do not trigger
        this — they are not events in the model, merely slots the
        adversary wasted.
        """

    def on_crash(self, pid: int, steps_taken: int) -> None:
        """Called once when a process is fail-stopped by a fault."""

    def on_finish(self, pid: int, output: Any) -> None:
        """Called once when a process finishes with its output value."""

    def on_run_end(self, result: "RunResult") -> None:
        """Called once with the final :class:`RunResult`."""


#: The :class:`StepHook` callbacks, in lifecycle order.
HOOK_STAGES = (
    "on_run_start", "before_step", "intercept", "after_step", "on_skip",
    "on_crash", "on_finish", "on_run_end",
)


def _unwrapped(function: Any) -> Any:
    """``function`` with every ``__wrapped__`` layer peeled off."""
    while hasattr(function, "__wrapped__"):
        function = function.__wrapped__
    return function


def hook_methods(hooks: Sequence[Any], stage: str) -> List[Callable[..., Any]]:
    """The bound ``stage`` methods of the hooks that override it, in order.

    A method is left out when it is still :class:`StepHook`'s no-op
    default.  The test looks at the method the *instance* resolves, so an
    instance attribute replacing a method counts as an override, and a
    duck-typed hook contributes every method it defines.  Both sides are
    unwrapped through ``__wrapped__`` first: a timing wrapper around an
    inherited default is still the default.
    """
    default = _unwrapped(getattr(StepHook, stage))
    methods: List[Callable[..., Any]] = []
    for hook in hooks:
        method = getattr(hook, stage, None)
        if (method is not None
                and _unwrapped(getattr(method, "__func__", method))
                is not default):
            methods.append(method)
    return methods


def _note_hook_failure(
    error: BaseException,
    hooks: Sequence[Any],
    method: Callable[..., Any],
    stage: str,
    *,
    pid: Optional[int] = None,
    global_step: Optional[int] = None,
) -> None:
    """Attach who/where context to an exception escaping hook ``method``.

    Fuzz campaigns surface hook failures (including strict monitor
    violations) far from the run that produced them; the note pins the hook
    class, lifecycle stage, pid, and global step so the failure is
    diagnosable from the traceback alone.  The hook is looked up among
    ``hooks`` (this is the failure path, so the scan costs nothing that
    matters), which also names a hook whose method is an instance
    attribute with no ``__self__``.
    """
    owner = next((hook for hook in hooks if getattr(hook, stage, None) == method),
                 getattr(method, "__self__", method))
    where = [f"in {type(owner).__name__}.{stage}"]
    if pid is not None:
        where.append(f"pid={pid}")
    if global_step is not None:
        where.append(f"global step={global_step}")
    error.add_note("raised " + ", ".join(where))


@dataclass(frozen=True)
class InterceptedResult:
    """Wrapper distinguishing "replace the result with X" from "no opinion"."""

    value: Any


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop ``pid`` after it has executed ``after_steps`` charged steps.

    ``after_steps=0`` crashes the process before it takes any step.  A crash
    is in-model: it is indistinguishable from an adversary that stops
    scheduling the process, which is exactly how crash failures manifest in
    an asynchronous system.
    """

    pid: int
    after_steps: int = 0

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ConfigurationError(f"crash pid must be >= 0, got {self.pid}")
        if self.after_steps < 0:
            raise ConfigurationError(
                f"after_steps must be >= 0, got {self.after_steps}"
            )


@dataclass(frozen=True)
class StallFault:
    """Starve ``pid`` while the global charged-step count is in a window.

    The window is ``[start_step, start_step + duration)`` measured in steps
    charged to *any* process; while it is open, slots granted to ``pid``
    are withheld.  In-model: the adversary simply schedules around the
    process for a while.
    """

    pid: int
    start_step: int
    duration: int

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ConfigurationError(f"stall pid must be >= 0, got {self.pid}")
        if self.start_step < 0:
            raise ConfigurationError(
                f"start_step must be >= 0, got {self.start_step}"
            )
        if self.duration < 1:
            raise ConfigurationError(
                f"duration must be >= 1, got {self.duration}"
            )


#: Register fault kinds: drop a write on the floor / serve a stale read.
LOSSY_WRITE = "lossy-write"
STALE_READ = "stale-read"
_REGISTER_FAULT_KINDS = (LOSSY_WRITE, STALE_READ)


@dataclass(frozen=True)
class RegisterFault:
    """Out-of-model register misbehaviour, for detector calibration only.

    ``kind`` is ``"lossy-write"`` (the matching write is silently dropped;
    the writer still believes it succeeded) or ``"stale-read"`` (the
    matching read returns the value the register held *before* its most
    recent write — the weak behaviour regular registers permit, which
    Hadzilacos–Hu–Toueg show breaks naive consensus protocols).

    ``obj_name`` selects target objects by substring match against the
    shared object's name.  ``op_index`` picks which matching operation
    (0-based, counted per fault) misbehaves and ``count`` how many
    consecutive matching operations after it do too.

    ``stale-read`` is the targeted, one-shot form of what the declarative
    register-model layer (:class:`~repro.memory.semantics.RegisterModel`
    with ``kind="regular"``) now expresses for whole runs; the value a
    stale read serves is defined once, in
    :func:`repro.memory.semantics.stale_value`, and this fault delegates
    to it.  The constructor remains fully supported — existing fault
    plans replay byte-identically.
    """

    kind: str
    obj_name: str
    op_index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _REGISTER_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown register fault kind {self.kind!r}; "
                f"choose from {_REGISTER_FAULT_KINDS}"
            )
        if not self.obj_name:
            raise ConfigurationError("obj_name must be a non-empty pattern")
        if self.op_index < 0:
            raise ConfigurationError(
                f"op_index must be >= 0, got {self.op_index}"
            )
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, composable bundle of faults for one run.

    In-model faults (crashes, stalls) compose freely.  Out-of-model
    register faults must be explicitly opted into with
    ``allow_out_of_model=True``, which keeps reproduction sweeps honest: a
    plan that could produce physically-impossible executions cannot be
    built by accident.
    """

    crashes: Tuple[CrashFault, ...] = ()
    stalls: Tuple[StallFault, ...] = ()
    register_faults: Tuple[RegisterFault, ...] = ()
    allow_out_of_model: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "register_faults", tuple(self.register_faults))
        if self.register_faults and not self.allow_out_of_model:
            raise ConfigurationError(
                "register faults violate the atomic-register model; pass "
                "allow_out_of_model=True to confirm this plan is for "
                "detector calibration, not reproduction evidence"
            )
        seen_crashes = set()
        for crash in self.crashes:
            if crash.pid in seen_crashes:
                raise ConfigurationError(
                    f"pid {crash.pid} has more than one crash fault"
                )
            seen_crashes.add(crash.pid)

    #: JSON format version written by :meth:`to_json`.
    _JSON_VERSION = 1

    @property
    def crashed_pids(self) -> Tuple[int, ...]:
        """Pids this plan fail-stops, in ascending order."""
        return tuple(sorted(crash.pid for crash in self.crashes))

    @property
    def is_in_model(self) -> bool:
        """True when every fault is expressible as adversary scheduling."""
        return not self.register_faults

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.crashes or self.stalls or self.register_faults)

    def injector(self) -> "FaultInjector":
        """Build a fresh stateful injector for one run."""
        return FaultInjector(self)

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON description that :meth:`from_json` restores exactly.

        Plans are value objects (frozen dataclasses), so the round trip
        preserves equality and hashing — the properties the fuzzer's corpus
        uses to deduplicate minimized reproducers.
        """
        return {
            "version": self._JSON_VERSION,
            "crashes": [
                {"pid": crash.pid, "after_steps": crash.after_steps}
                for crash in self.crashes
            ],
            "stalls": [
                {
                    "pid": stall.pid,
                    "start_step": stall.start_step,
                    "duration": stall.duration,
                }
                for stall in self.stalls
            ],
            "register_faults": [
                {
                    "kind": fault.kind,
                    "obj_name": fault.obj_name,
                    "op_index": fault.op_index,
                    "count": fault.count,
                }
                for fault in self.register_faults
            ],
            "allow_out_of_model": self.allow_out_of_model,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output.

        Unknown versions are rejected with
        :class:`~repro.errors.ConfigurationError`; every fault re-runs its
        own validation, so a hand-edited corpus case cannot smuggle in an
        out-of-model fault without the explicit opt-in flag.
        """
        expect_versioned(data, "fault plan", cls._JSON_VERSION, key="version")
        return cls(
            crashes=tuple(
                CrashFault(pid=int(entry["pid"]),
                           after_steps=int(entry["after_steps"]))
                for entry in data.get("crashes", ())
            ),
            stalls=tuple(
                StallFault(
                    pid=int(entry["pid"]),
                    start_step=int(entry["start_step"]),
                    duration=int(entry["duration"]),
                )
                for entry in data.get("stalls", ())
            ),
            register_faults=tuple(
                RegisterFault(
                    kind=str(entry["kind"]),
                    obj_name=str(entry["obj_name"]),
                    op_index=int(entry["op_index"]),
                    count=int(entry["count"]),
                )
                for entry in data.get("register_faults", ())
            ),
            allow_out_of_model=bool(data.get("allow_out_of_model", False)),
        )


class FaultInjector(StepHook):
    """Per-run stateful executor of a :class:`FaultPlan`.

    Crash and stall decisions are pure functions of charged step counts, so
    the injected behaviour is reproducible.  Register faults additionally
    track, per fault, how many matching operations have been seen, and keep
    a per-object history of applied writes so stale reads can serve the
    previous value.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._crash_budget: Dict[int, int] = {
            crash.pid: crash.after_steps for crash in plan.crashes
        }
        self._fault_matches: List[int] = [0] * len(plan.register_faults)
        self._write_history: Dict[str, List[Any]] = {}
        #: (fault, pid, step) triples for every fault actually delivered.
        self.injected: List[Tuple[RegisterFault, int, int]] = []
        self._global_steps = 0

    # ----- slot decisions --------------------------------------------------

    def before_step(
        self,
        pid: int,
        process_steps: int,
        global_steps: int,
        operation: Optional[Operation],
    ) -> Optional[str]:
        self._global_steps = global_steps
        budget = self._crash_budget.get(pid)
        if budget is not None and process_steps >= budget:
            return CRASH
        for stall in self.plan.stalls:
            if stall.pid != pid:
                continue
            if stall.start_step <= global_steps < stall.start_step + stall.duration:
                return SKIP
        return None

    # ----- register faults -------------------------------------------------

    def _matches(self, fault: RegisterFault, operation: Operation) -> bool:
        if fault.kind == LOSSY_WRITE and not isinstance(operation, Write):
            return False
        if fault.kind == STALE_READ and not isinstance(operation, Read):
            return False
        return fault.obj_name in operation.obj.name

    def intercept(
        self, pid: int, operation: Operation
    ) -> Optional[InterceptedResult]:
        for index, fault in enumerate(self.plan.register_faults):
            if not self._matches(fault, operation):
                continue
            match = self._fault_matches[index]
            self._fault_matches[index] = match + 1
            if not fault.op_index <= match < fault.op_index + fault.count:
                continue
            self.injected.append((fault, pid, self._global_steps))
            if fault.kind == LOSSY_WRITE:
                # The write is dropped; the writer sees a normal ack.
                return InterceptedResult(None)
            # Deferred import: the semantics module subclasses StepHook, so
            # importing it at module level would be circular.  stale_value
            # is the single definition of the one-step-stale rule this
            # fault has always applied (see repro.memory.semantics); plans
            # written before the register-model layer existed reproduce
            # byte-identical outcomes through it.
            from repro.memory.semantics import stale_value
            history = self._write_history.get(operation.obj.name, [])
            return InterceptedResult(stale_value(history))
        return None

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        # Track write history for stale reads.  Intercepted (lossy) writes
        # are recorded too: the stale value a later read serves should be
        # what an observer believes was overwritten.
        if isinstance(operation, Write):
            self._write_history.setdefault(operation.obj.name, []).append(
                operation.value
            )


# ----- service-level faults --------------------------------------------------
#
# The classes above perturb *simulated executions* (the adversary's power
# inside one run).  The classes below perturb the *serving layer* that
# exposes those runs as sessions (repro.service): workers die, shards go
# dark, responses crawl.  They share this module because they follow the
# same discipline — declarative frozen value objects with versioned JSON,
# compiled per run into a stateful controller — which lets the loadgen
# chaos-test the service exactly the way scenarios fuzz the simulator.
# Times are in the service clock's seconds (virtual seconds under the
# deterministic loadtest loop, wall seconds under a live server).

#: Transient failure kinds a service fault controller can report.
WORKER_KILL = "worker-kill"
SHARD_BLACKOUT = "shard-blackout"


@dataclass(frozen=True)
class WorkerKillFault:
    """Kill the next ``count`` worker attempts on ``shard`` at/after ``at``.

    A killed attempt fails transiently (the session retries under its
    backoff policy); the shard's circuit breaker records the failure.
    """

    shard: int
    at: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if self.at < 0:
            raise ConfigurationError(f"at must be >= 0, got {self.at}")
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ResponseDelayFault:
    """Add ``delay`` seconds of service time on ``shard`` during a window.

    The window is ``[start, start + duration)``.  Delayed attempts may
    blow their per-attempt timeout (and ultimately the session deadline),
    so this fault converts a healthy shard into a slow one — the failure
    mode circuit breakers exist for.
    """

    shard: int
    start: float
    duration: float
    delay: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}"
            )
        if self.delay <= 0:
            raise ConfigurationError(f"delay must be > 0, got {self.delay}")


@dataclass(frozen=True)
class ShardBlackoutFault:
    """Fail every worker attempt on ``shard`` during a window, instantly.

    The window is ``[start, start + duration)``.  A blacked-out shard is
    the canonical breaker-opening event: consecutive instant failures trip
    the breaker, which then sheds load at admission until its half-open
    probes find the shard healthy again.
    """

    shard: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}"
            )


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A declarative bundle of service-layer faults for one traffic run.

    Mirrors :class:`FaultPlan`: immutable, reusable, versioned-JSON
    round-trippable, and compiled per run into a fresh stateful
    :class:`ServiceFaultController`.  Service faults model operational
    failures, not protocol misbehaviour, so there is no out-of-model
    opt-in — every combination is a legitimate thing to throw at a
    production serving layer.
    """

    worker_kills: Tuple[WorkerKillFault, ...] = ()
    response_delays: Tuple[ResponseDelayFault, ...] = ()
    blackouts: Tuple[ShardBlackoutFault, ...] = ()

    #: JSON format version written by :meth:`to_json`.
    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "worker_kills", tuple(self.worker_kills))
        object.__setattr__(
            self, "response_delays", tuple(self.response_delays)
        )
        object.__setattr__(self, "blackouts", tuple(self.blackouts))

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.worker_kills or self.response_delays or self.blackouts)

    @property
    def shards_touched(self) -> Tuple[int, ...]:
        """Shard ids any fault targets, ascending (admission sanity checks)."""
        shards = {fault.shard for fault in self.worker_kills}
        shards.update(fault.shard for fault in self.response_delays)
        shards.update(fault.shard for fault in self.blackouts)
        return tuple(sorted(shards))

    def controller(self) -> "ServiceFaultController":
        """Build a fresh stateful controller for one traffic run."""
        return ServiceFaultController(self)

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON description that :meth:`from_json` restores exactly."""
        return {
            "version": self._JSON_VERSION,
            "worker_kills": [
                {"shard": f.shard, "at": f.at, "count": f.count}
                for f in self.worker_kills
            ],
            "response_delays": [
                {
                    "shard": f.shard,
                    "start": f.start,
                    "duration": f.duration,
                    "delay": f.delay,
                }
                for f in self.response_delays
            ],
            "blackouts": [
                {"shard": f.shard, "start": f.start, "duration": f.duration}
                for f in self.blackouts
            ],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ServiceFaultPlan":
        """Rebuild a plan from :meth:`to_json` output, rejecting foreign
        versions; every fault re-runs its own validation."""
        expect_versioned(
            data, "service fault plan", cls._JSON_VERSION, key="version"
        )
        return cls(
            worker_kills=tuple(
                WorkerKillFault(
                    shard=int(entry["shard"]),
                    at=float(entry["at"]),
                    count=int(entry["count"]),
                )
                for entry in data.get("worker_kills", ())
            ),
            response_delays=tuple(
                ResponseDelayFault(
                    shard=int(entry["shard"]),
                    start=float(entry["start"]),
                    duration=float(entry["duration"]),
                    delay=float(entry["delay"]),
                )
                for entry in data.get("response_delays", ())
            ),
            blackouts=tuple(
                ShardBlackoutFault(
                    shard=int(entry["shard"]),
                    start=float(entry["start"]),
                    duration=float(entry["duration"]),
                )
                for entry in data.get("blackouts", ())
            ),
        )


class ServiceFaultController:
    """Per-run stateful executor of a :class:`ServiceFaultPlan`.

    The service consults it at every worker attempt: blackouts win over
    worker kills (a dark shard cannot even start an attempt), worker kills
    are consumed one attempt at a time, and response delays stack if
    windows overlap.  Decisions are pure functions of ``(shard, now)`` and
    the kill budgets, so a virtual-time traffic run stays deterministic.
    """

    def __init__(self, plan: ServiceFaultPlan):
        self.plan = plan
        self._kills_left = [fault.count for fault in plan.worker_kills]
        #: (kind, shard, time) triples for every fault actually delivered.
        self.injected: List[Tuple[str, int, float]] = []

    def attempt_failure(self, shard: int, now: float) -> Optional[str]:
        """The transient-failure kind this attempt suffers, or ``None``."""
        for fault in self.plan.blackouts:
            if fault.shard == shard and \
                    fault.start <= now < fault.start + fault.duration:
                self.injected.append((SHARD_BLACKOUT, shard, now))
                return SHARD_BLACKOUT
        for index, fault in enumerate(self.plan.worker_kills):
            if fault.shard == shard and now >= fault.at \
                    and self._kills_left[index] > 0:
                self._kills_left[index] -= 1
                self.injected.append((WORKER_KILL, shard, now))
                return WORKER_KILL
        return None

    def extra_delay(self, shard: int, now: float) -> float:
        """Added service seconds for an attempt dispatched at ``now``."""
        return sum(
            fault.delay
            for fault in self.plan.response_delays
            if fault.shard == shard
            and fault.start <= now < fault.start + fault.duration
        )
