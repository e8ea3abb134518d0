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
builds a fresh stateful :class:`FaultInjector` (a
:class:`~repro.runtime.hooks.StepHook`) for each run, which the
:class:`~repro.runtime.simulator.Simulator` consults at every scheduled
slot.  Crash and stall triggers are functions of charged
step counts only, so a faulted run remains a deterministic function of
``(programs, inputs, schedule, seed tree, plan)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.memory.semantics import stale_value
from repro.runtime.hooks import CRASH, SKIP, InterceptedResult, StepHook
from repro.runtime.operations import Operation, Read, Write

__all__ = [
    "CrashFault",
    "FaultInjector",
    "FaultPlan",
    "RegisterFault",
    "StallFault",
]


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
        if not self.register_faults:
            return _SlotFaultInjector(self)
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
            # stale_value is the single definition of the one-step-stale
            # rule this fault has always applied; plans written before the
            # register-model layer existed reproduce byte-identical
            # outcomes through it.
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


class _SlotFaultInjector(FaultInjector):
    """The injector of a plan with crashes and stalls only.

    With no register fault there is nothing to intercept and no stale read
    to serve from a write history, so both callbacks stay
    :class:`StepHook`'s defaults, which the step loop never calls.
    """

    intercept = StepHook.intercept  # type: ignore[assignment]
    after_step = StepHook.after_step  # type: ignore[assignment]
