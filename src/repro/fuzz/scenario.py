"""Fuzz scenarios: random protocol/adversary/fault compositions, and the
oracle harness that runs one and classifies the result.

A :class:`Scenario` pins *everything* about one trial — the protocol stack,
process count, input workload, adversary (an oblivious
:class:`~repro.workloads.schedules.ScheduleSpec`, an adaptive
:class:`~repro.runtime.adaptive.AdaptiveSpec`, or an intermediate ladder
rung :class:`~repro.runtime.adversary.AdversarySpec`), the declared
register model (:class:`~repro.memory.semantics.RegisterModel`; absent
means atomic), fault plan, and the seed feeding algorithm coins — so a
scenario is a pure value: hashable, equality-comparable, and JSON
round-trippable.  Generation is a pure function of
``(master_seed, trial_index, config)``, which is what makes fuzz
campaigns replayable and shrinking meaningful.

Oracle regimes
--------------

Every run rides under the full monitor suite plus post-hoc trace-semantics
checks.  Which failures count as *violations* depends on the fault plan:

- **In-model plans** (crashes/stalls only): every oracle is hard.  The
  paper proves safety against arbitrary schedules and termination for all
  survivors, so any breach is a bug.
- **Out-of-model plans** (register faults): the atomic-register assumption
  itself is broken, so agreement-flavoured oracles (coherence, agreement,
  convergence, register/trace semantics) are *expected* to degrade and are
  recorded as degradations, not violations.  Validity and termination stay
  hard: bounded register misbehaviour must never fabricate values nor hang
  a survivor.
- **Declared weak register models** (``register_model`` of kind
  ``regular``/``safe``): same split as out-of-model plans — the weakening
  is *declared*, so agreement-flavoured damage is the measurement, not a
  bug, while validity/termination/wait-freedom stay hard (Algorithms 1-2
  must keep them even on regular registers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    ProtocolViolationError,
    ScheduleExhaustedError,
    StepLimitExceededError,
)
from repro.fuzz.stacks import (
    ADOPT_COMMIT,
    CONSENSUS,
    STACKS,
    StackSpec,
    get_stack,
    stack_names,
)
from repro.jsonio import expect_versioned
from repro.memory.semantics import RegisterModel, SemanticsInjector
from repro.obs.metrics import MetricsHook, MetricsRegistry
from repro.runtime.adaptive import ADAPTIVE_FAMILIES, AdaptiveSpec, run_adaptive_programs
from repro.runtime.adversary import AdversarySpec
from repro.runtime.budget import Deadline, WallClockBudgetHook
from repro.runtime.faults import FaultPlan, CrashFault, RegisterFault, StallFault
from repro.runtime.monitors import (
    AdoptCommitCoherenceMonitor,
    RegisterSemanticsMonitor,
    ValidityMonitor,
    WaitFreedomWatchdog,
)
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.runtime.trace import (
    check_max_register_semantics,
    check_register_semantics,
    check_snapshot_semantics,
)
from repro.workloads.inputs import INPUT_WORKLOADS, make_input
from repro.workloads.schedules import SCHEDULE_FAMILIES, ScheduleSpec

__all__ = [
    "WORKLOADS",
    "FuzzConfig",
    "Scenario",
    "ScenarioOutcome",
    "ViolationRecord",
    "generate_scenario",
    "make_inputs",
    "run_scenario",
]

#: Input-gallery workloads the fuzzer draws from.
WORKLOADS = INPUT_WORKLOADS

#: Oracles that stay hard even when the fault plan steps outside the
#: atomic-register model: bounded register misbehaviour may wreck
#: agreement, but it must never fabricate a value or hang a survivor.
HARD_ORACLES = frozenset({"validity", "wait-freedom", "termination", "starvation"})

#: Substrings register faults target; chosen to hit the register names the
#: registered stacks actually allocate (proposal/flag/round registers,
#: snapshot components, announce arrays).
_FAULT_NAME_PATTERNS = ("proposal", ".r[", "flag", ".A[", ".B[", "announce")

def make_inputs(workload: str, n: int, seed: int) -> List[Any]:
    """The named input assignment for ``n`` processes."""
    return make_input(workload, n, seed % 2**32)


@dataclass(frozen=True)
class Scenario:
    """One fully-pinned fuzz trial.

    Exactly one of ``schedule`` (oblivious), ``adaptive`` (fully adaptive),
    and ``adversary`` (an intermediate ladder rung) must be set.  Adaptive
    and ladder scenarios may carry crash faults but not stalls: a stall
    window is keyed on global charged steps, and an adversary that keeps
    naming the stalled process would freeze that clock forever.

    ``register_model`` declares the register semantics the run executes
    under; ``None`` (and a declared atomic model, which normalizes to
    ``None``) is the paper's atomic baseline.  The two new fields are
    omitted from JSON when absent, so every scenario minted before they
    existed serializes to byte-identical canonical JSON.
    """

    stack: str
    n: int
    workload: str
    seed: int
    schedule: Optional[ScheduleSpec] = None
    adaptive: Optional[AdaptiveSpec] = None
    faults: FaultPlan = field(default_factory=FaultPlan)
    adversary: Optional[AdversarySpec] = None
    register_model: Optional[RegisterModel] = None

    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        if self.register_model is not None and self.register_model.is_atomic:
            # Declared-atomic is the default contract; normalizing keeps
            # equality, hashing, and canonical JSON free of a redundant axis.
            object.__setattr__(self, "register_model", None)
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        chosen = sum(
            1 for option in (self.schedule, self.adaptive, self.adversary)
            if option is not None
        )
        if chosen != 1:
            raise ConfigurationError(
                "a scenario needs exactly one of schedule=, adaptive=, or "
                "adversary="
            )
        if self.schedule is not None and self.schedule.n != self.n:
            raise ConfigurationError(
                f"schedule is for n={self.schedule.n} but scenario has "
                f"n={self.n}"
            )
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; choose from {WORKLOADS}"
            )
        if self.schedule is None and self.faults.stalls:
            raise ConfigurationError(
                "adaptive/adversary scenarios cannot carry stall faults "
                "(the stall window is keyed on global charged steps, which "
                "an adversary naming the stalled process would freeze)"
            )
        for fault in (*self.faults.crashes, *self.faults.stalls):
            if fault.pid >= self.n:
                raise ConfigurationError(
                    f"fault targets pid {fault.pid} but the scenario has "
                    f"n={self.n}"
                )

    @property
    def is_adaptive(self) -> bool:
        """True when the run is driven by a step-by-step choosing adversary
        (fully adaptive or a ladder rung) rather than a fixed schedule."""
        return self.schedule is None

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON description that :meth:`from_json` restores exactly.

        ``adversary`` and ``register_model`` keys appear only when set, so
        pre-ladder scenarios keep their historical canonical bytes.
        """
        data: Dict[str, Any] = {
            "version": self._JSON_VERSION,
            "stack": self.stack,
            "n": self.n,
            "workload": self.workload,
            "seed": self.seed,
            "schedule": None if self.schedule is None else self.schedule.to_json(),
            "adaptive": None if self.adaptive is None else self.adaptive.to_json(),
            "faults": self.faults.to_json(),
        }
        if self.adversary is not None:
            data["adversary"] = self.adversary.to_json()
        if self.register_model is not None:
            data["register_model"] = self.register_model.to_json()
        return data

    def canonical_json(self) -> str:
        """Byte-stable serialization used for hashing and deduplication."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Scenario":
        expect_versioned(data, "scenario", cls._JSON_VERSION, key="version")
        schedule = data.get("schedule")
        adaptive = data.get("adaptive")
        adversary = data.get("adversary")
        register_model = data.get("register_model")
        return cls(
            stack=str(data["stack"]),
            n=int(data["n"]),
            workload=str(data["workload"]),
            seed=int(data["seed"]),
            schedule=None if schedule is None else ScheduleSpec.from_json(schedule),
            adaptive=None if adaptive is None else AdaptiveSpec.from_json(adaptive),
            faults=FaultPlan.from_json(data["faults"]),
            adversary=(
                None if adversary is None else AdversarySpec.from_json(adversary)
            ),
            register_model=(
                None if register_model is None
                else RegisterModel.from_json(register_model)
            ),
        )


@dataclass(frozen=True)
class ViolationRecord:
    """One oracle failure (or, out-of-model, expected degradation)."""

    oracle: str
    pid: Optional[int]
    message: str

    def to_json(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "pid": self.pid, "message": self.message}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ViolationRecord":
        return cls(
            oracle=str(data["oracle"]),
            pid=None if data.get("pid") is None else int(data["pid"]),
            message=str(data.get("message", "")),
        )


@dataclass(frozen=True)
class ScenarioOutcome:
    """The classified result of running one scenario.

    ``status`` is one of ``"ok"``, ``"degraded"`` (out-of-model damage
    only), ``"violation"`` (a hard oracle fired), ``"budget-exceeded"``
    (the wall-clock safety valve stopped the run before any verdict), or
    ``"inconclusive"`` (the execution could not exercise the oracles, e.g.
    a stall window that can no longer close).
    """

    scenario: Scenario
    status: str
    violations: Tuple[ViolationRecord, ...] = ()
    degradations: Tuple[ViolationRecord, ...] = ()
    total_steps: int = 0
    note: str = ""
    metrics: Optional[Dict[str, Any]] = None

    @property
    def oracle_names(self) -> Tuple[str, ...]:
        """Sorted names of every oracle that fired (hard or degraded)."""
        names = {record.oracle for record in self.violations}
        names.update(record.oracle for record in self.degradations)
        return tuple(sorted(names))

    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_json(),
            "status": self.status,
            "violations": [record.to_json() for record in self.violations],
            "degradations": [record.to_json() for record in self.degradations],
            "total_steps": self.total_steps,
            "note": self.note,
            "metrics": self.metrics,
        }


# ----- generation -----------------------------------------------------------


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for scenario generation.

    ``stacks`` restricts the draw (empty tuple = every honest stack);
    planted, ladder, or custom-registered stacks participate only when
    named explicitly.  ``allow_out_of_model`` gates register-fault
    generation, mirroring :class:`~repro.runtime.faults.FaultPlan`'s own
    gate.

    ``register_model`` / ``adversary`` *force* every generated scenario
    onto that register model / ladder rung (each trial gets a fresh
    private seed).  Forcing an adversary replaces whatever schedule or
    adaptive spec the trial drew and drops its stall faults; the draws
    still happen, so trial streams with the forcing off are unchanged.
    Like the scenario fields, both serialize only when set.
    """

    stacks: Tuple[str, ...] = ()
    min_n: int = 2
    max_n: int = 5
    include_adaptive: bool = True
    allow_out_of_model: bool = False
    register_model: Optional[RegisterModel] = None
    adversary: Optional[AdversarySpec] = None

    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "stacks", tuple(self.stacks))
        if self.register_model is not None and self.register_model.is_atomic:
            object.__setattr__(self, "register_model", None)
        if self.min_n < 1:
            raise ConfigurationError(f"min_n must be >= 1, got {self.min_n}")
        if self.max_n < self.min_n:
            raise ConfigurationError(
                f"max_n ({self.max_n}) must be >= min_n ({self.min_n})"
            )

    def resolved_stacks(self) -> List[str]:
        """The stack names this config draws from (validated)."""
        names = list(self.stacks) if self.stacks else stack_names()
        for name in names:
            get_stack(name)  # raises ConfigurationError for unknown names
        return names

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "version": self._JSON_VERSION,
            "stacks": list(self.stacks),
            "min_n": self.min_n,
            "max_n": self.max_n,
            "include_adaptive": self.include_adaptive,
            "allow_out_of_model": self.allow_out_of_model,
        }
        if self.register_model is not None:
            data["register_model"] = self.register_model.to_json()
        if self.adversary is not None:
            data["adversary"] = self.adversary.to_json()
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FuzzConfig":
        expect_versioned(data, "fuzz config", cls._JSON_VERSION, key="version")
        register_model = data.get("register_model")
        adversary = data.get("adversary")
        return cls(
            stacks=tuple(str(name) for name in data.get("stacks", ())),
            min_n=int(data.get("min_n", 2)),
            max_n=int(data.get("max_n", 5)),
            include_adaptive=bool(data.get("include_adaptive", True)),
            allow_out_of_model=bool(data.get("allow_out_of_model", False)),
            register_model=(
                None if register_model is None
                else RegisterModel.from_json(register_model)
            ),
            adversary=(
                None if adversary is None else AdversarySpec.from_json(adversary)
            ),
        )


def _random_explicit_slots(rng, n: int) -> Tuple[int, ...]:
    """A mutated explicit schedule: fair round-robin base, then chaos.

    Mutations (swap, duplicate, drop) preserve slot validity while
    exploring the interleaving space around fair schedules, which is where
    TOCTTOU-style protocol races live.
    """
    reps = rng.randint(2, 24)
    slots = [pid for _ in range(reps) for pid in range(n)]
    for _ in range(rng.randint(0, max(1, len(slots) // 2))):
        kind = rng.choice(("swap", "dup", "drop"))
        index = rng.randrange(len(slots))
        if kind == "swap":
            other = rng.randrange(len(slots))
            slots[index], slots[other] = slots[other], slots[index]
        elif kind == "dup" and len(slots) < 512:
            slots.insert(index, slots[rng.randrange(len(slots))])
        elif kind == "drop" and len(slots) > n:
            del slots[index]
    return tuple(slots)


#: The sorted draw lists that depend only on module constants.
_WORKLOAD_DRAW = sorted(WORKLOADS)
_ADAPTIVE_DRAW = sorted(ADAPTIVE_FAMILIES)
_SCHEDULE_DRAW = sorted(SCHEDULE_FAMILIES + ("explicit",))

#: ``config.stacks`` -> (the registered specs it was resolved against, the
#: sorted stack names drawn from).
_STACK_DRAWS: Dict[Tuple[str, ...], Tuple[Tuple[StackSpec, ...], List[str]]] = {}


def _stack_draw(config: FuzzConfig) -> List[str]:
    """``sorted(config.resolved_stacks())``, resolved again only when the
    stack registry has changed since the last draw for these stacks."""
    registry = tuple(STACKS.values())
    cached = _STACK_DRAWS.get(config.stacks)
    if cached is None or cached[0] != registry:
        cached = (registry, sorted(config.resolved_stacks()))
        _STACK_DRAWS[config.stacks] = cached
    return cached[1]


def generate_scenario(
    master_seed: int, trial_index: int, config: FuzzConfig
) -> Scenario:
    """Compose trial ``trial_index``'s scenario — a pure function of its
    arguments, so campaigns replay and shard deterministically."""
    rng = (
        SeedTree(master_seed)
        .child("fuzz")
        .child(f"trial-{trial_index}")
        .rng()
    )
    spec = get_stack(rng.choice(_stack_draw(config)))
    low = max(config.min_n, spec.min_n)
    high = max(config.max_n, low)
    n = rng.randint(low, high)
    workload = rng.choice(
        sorted(spec.workloads) if spec.workloads else _WORKLOAD_DRAW
    )
    seed = rng.randrange(2**48)

    adaptive: Optional[AdaptiveSpec] = None
    schedule: Optional[ScheduleSpec] = None
    if config.include_adaptive and rng.random() < 0.25:
        adaptive = AdaptiveSpec(
            rng.choice(_ADAPTIVE_DRAW), seed=rng.randrange(2**32)
        )
    else:
        family = rng.choice(_SCHEDULE_DRAW)
        if family == "explicit":
            schedule = ScheduleSpec(
                "explicit", n, slots=_random_explicit_slots(rng, n)
            )
        else:
            schedule = ScheduleSpec(family, n, seed=rng.randrange(2**32))

    crashes: List[CrashFault] = []
    if n > 1 and rng.random() < 0.5:
        count = rng.randint(1, max(1, n // 2))
        for pid in sorted(rng.sample(range(n), count)):
            crashes.append(CrashFault(pid=pid, after_steps=rng.randint(0, 24)))
    stalls: List[StallFault] = []
    if adaptive is None and rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            stalls.append(StallFault(
                pid=rng.randrange(n),
                start_step=rng.randint(0, 48),
                duration=rng.randint(1, 32),
            ))
    register_faults: List[RegisterFault] = []
    if config.allow_out_of_model and rng.random() < 0.6:
        for _ in range(rng.randint(1, 2)):
            register_faults.append(RegisterFault(
                kind=rng.choice(("lossy-write", "stale-read")),
                obj_name=rng.choice(_FAULT_NAME_PATTERNS),
                op_index=rng.randint(0, 6),
                count=rng.randint(1, 3),
            ))

    # Ladder overrides come last so every draw above still happens in the
    # historical order: a config (or ladder stack) that pins an adversary or
    # register model perturbs only trials where the pin is active, never the
    # RNG stream of configs minted before these options existed.
    adversary = config.adversary if config.adversary is not None else spec.adversary
    if adversary is not None:
        adversary = replace(adversary, seed=rng.randrange(2**32))
        schedule = None
        adaptive = None
        stalls = []
    model = (
        config.register_model if config.register_model is not None
        else spec.register_model
    )
    if model is not None and not model.is_atomic:
        model = replace(model, seed=rng.randrange(2**32))
    else:
        model = None

    return Scenario(
        stack=spec.name,
        n=n,
        workload=workload,
        seed=seed,
        schedule=schedule,
        adaptive=adaptive,
        faults=FaultPlan(
            crashes=tuple(crashes),
            stalls=tuple(stalls),
            register_faults=tuple(register_faults),
            allow_out_of_model=bool(register_faults),
        ),
        adversary=adversary,
        register_model=model,
    )


# ----- execution + oracles --------------------------------------------------


#: Which post-hoc checker an object's trace gets, by the kinds it saw.
_SNAPSHOT_KINDS = frozenset({"update", "scan"})
_MAX_REGISTER_KINDS = frozenset({"maxwrite", "maxread"})
_REGISTER_KINDS = frozenset({"read", "write"})
_KIND = attrgetter("kind")


def _trace_records(result: RunResult, n: int) -> List[ViolationRecord]:
    """Post-hoc trace-semantics oracles, one verdict per shared object."""
    records: List[ViolationRecord] = []
    if result.trace is None:
        return records
    by_object: Dict[str, List[Any]] = {}
    for event in result.trace.events:
        by_object.setdefault(event.obj_name, []).append(event)
    for name in sorted(by_object):
        events = by_object[name]
        kinds = set(map(_KIND, events))
        try:
            if not kinds.isdisjoint(_SNAPSHOT_KINDS):
                check_snapshot_semantics(events, n)
            elif not kinds.isdisjoint(_MAX_REGISTER_KINDS):
                check_max_register_semantics(events)
            elif not kinds.isdisjoint(_REGISTER_KINDS):
                # The checker assumes initial=None; registers created with a
                # different initial value (e.g. flag registers holding
                # False) would trip it spuriously, so treat the first
                # pre-write read as defining the initial value.
                first = events[0]
                initial = first.result if first.kind == "read" else None
                check_register_semantics(events, initial=initial)
        except ProtocolViolationError as error:
            records.append(ViolationRecord("trace-semantics", None, str(error)))
    return records


def _output_records(
    spec: StackSpec, result: RunResult, inputs: Sequence[Any]
) -> List[ViolationRecord]:
    """Output-shape oracles that depend on the stack kind."""
    records: List[ViolationRecord] = []
    if spec.kind == CONSENSUS and len(result.decided_values) > 1:
        records.append(ViolationRecord(
            "agreement", None,
            f"consensus decided {sorted(map(repr, result.decided_values))}",
        ))
    if spec.kind == ADOPT_COMMIT and len(set(inputs)) == 1:
        expected = inputs[0]
        for pid in sorted(result.outputs):
            output = result.outputs[pid]
            if not (getattr(output, "committed", False)
                    and output.value == expected):
                records.append(ViolationRecord(
                    "convergence", pid,
                    f"identical inputs {expected!r} but pid {pid} got "
                    f"{output!r}",
                ))
    return records


def run_scenario(
    scenario: Scenario,
    *,
    wall_clock_seconds: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[Any] = None,
) -> ScenarioOutcome:
    """Execute one scenario under the full oracle suite.

    ``wall_clock_seconds`` is a host safety valve, not part of the model: a
    pathological scenario is cut off and reported as ``budget-exceeded``
    instead of hanging the campaign.  Within the budget, the outcome is a
    deterministic function of the scenario.

    ``metrics`` optionally names a registry the run populates — simulator
    step/operation counters plus monitor observations — and whose snapshot
    is carried on :attr:`ScenarioOutcome.metrics` for campaign aggregation.

    ``trace`` optionally names a :class:`~repro.obs.tracing.TraceRecorder`
    attached as a step hook; after the run it is annotated with the built
    stack's conciliator round bookkeeping (when the stack has one), so
    trace analytics (:mod:`repro.obs.analyze`) can reconstruct persona
    lineages from it.
    """
    spec = get_stack(scenario.stack)
    if spec.workloads is not None and scenario.workload not in spec.workloads:
        raise ConfigurationError(
            f"stack {spec.name!r} only accepts workloads {spec.workloads}, "
            f"got {scenario.workload!r}"
        )
    inputs = make_inputs(scenario.workload, scenario.n, scenario.seed)
    built = spec.build(scenario.n, inputs)

    validity = ValidityMonitor(inputs, strict=False, metrics=metrics)
    coherence = AdoptCommitCoherenceMonitor(strict=False, metrics=metrics)
    watchdog = WaitFreedomWatchdog(
        built.step_budget, strict=False, metrics=metrics
    )
    register_semantics = RegisterSemanticsMonitor(
        strict=False, metrics=metrics, model=scenario.register_model
    )
    monitors = [validity, coherence, watchdog, register_semantics]

    hooks: List[Any] = []
    if scenario.register_model is not None:
        # First, so weakened read resolution is bound before faults or
        # monitors ever observe the objects.
        hooks.append(SemanticsInjector(scenario.register_model))
    if not scenario.faults.is_empty:
        hooks.append(scenario.faults.injector())
    hooks.extend(monitors)
    if metrics is not None:
        hooks.append(MetricsHook(metrics))
    if trace is not None:
        hooks.append(trace)
    if wall_clock_seconds is not None:
        hooks.append(WallClockBudgetHook(Deadline(wall_clock_seconds)))

    step_limit = built.step_budget * scenario.n + 1024
    seeds = SeedTree(scenario.seed)
    records: List[ViolationRecord] = []
    note = ""
    result: Optional[RunResult] = None
    total_steps = 0
    status: Optional[str] = None

    def finish(status: str, **kwargs: Any) -> ScenarioOutcome:
        snapshot: Optional[Dict[str, Any]] = None
        if metrics is not None:
            metrics.counter("fuzz.scenario.status", status=status).inc()
            snapshot = metrics.to_json()
        return ScenarioOutcome(scenario, status, metrics=snapshot, **kwargs)

    adversary_impl: Optional[Any] = None
    if scenario.adaptive is not None:
        adversary_impl = scenario.adaptive.build()
    elif scenario.adversary is not None:
        adversary_impl = scenario.adversary.build()

    try:
        if adversary_impl is not None:
            result = run_adaptive_programs(
                built.programs,
                adversary_impl,
                seeds,
                inputs=inputs,
                record_trace=True,
                step_limit=step_limit,
                hooks=hooks,
            )
        else:
            assert scenario.schedule is not None
            result = run_programs(
                built.programs,
                scenario.schedule.build(),
                seeds,
                inputs=inputs,
                record_trace=True,
                step_limit=step_limit,
                hooks=hooks,
                allow_partial=scenario.schedule.is_finite,
            )
    except BudgetExceededError as error:
        return finish("budget-exceeded", note=str(error))
    except StepLimitExceededError as error:
        records.append(ViolationRecord(
            "termination", None,
            f"run exhausted its step limit ({step_limit}) with processes "
            f"{sorted(error.unfinished_pids)} undecided",
        ))
        total_steps = sum(error.steps_by_pid.values())
    except ScheduleExhaustedError as error:
        if scenario.faults.stalls:
            # A stall window keyed on a frozen global step count can never
            # close once every other process is done; the run cannot
            # exercise the oracles, so it is inconclusive, not a violation.
            return finish(
                "inconclusive",
                note=f"stall window could not close: {error}",
            )
        records.append(ViolationRecord(
            "starvation", None,
            f"a fair schedule starved processes "
            f"{sorted(error.unfinished_pids)}: {error}",
        ))
        total_steps = sum(error.steps_by_pid.values())
    except Exception as error:  # noqa: BLE001 - a crashing protocol is a finding
        records.append(ViolationRecord(
            "runtime-error", None, f"{type(error).__name__}: {error}",
        ))

    if trace is not None and built.conciliator is not None:
        try:
            trace.annotate_conciliator(built.conciliator)
        except ConfigurationError:
            # No round bookkeeping (e.g. the run died before any round
            # completed): the step-level trace is still worth keeping.
            pass

    if metrics is not None and scenario.adversary is not None:
        # Ladder telemetry: how often the wrapper actually deviated from
        # its inner strategy this run.
        clamped = getattr(adversary_impl, "clamped", None)
        if clamped:
            metrics.counter(
                "adversary.clamped", kind=scenario.adversary.kind
            ).inc(clamped)
        perturbed = getattr(adversary_impl, "perturbed", None)
        if perturbed:
            metrics.counter(
                "adversary.perturbed", kind=scenario.adversary.kind
            ).inc(perturbed)

    if result is not None:
        total_steps = result.total_steps
        records.extend(_trace_records(result, scenario.n))
        records.extend(_output_records(spec, result, inputs))
    for monitor in monitors:
        for violation in monitor.violations:
            records.append(ViolationRecord(
                violation.monitor, violation.pid, violation.message,
            ))

    if scenario.faults.is_in_model and scenario.register_model is None:
        violations = tuple(records)
        degradations: Tuple[ViolationRecord, ...] = ()
    else:
        # Out-of-model faults break the atomicity assumption behind the
        # protocol's back; a declared weak register model breaks it openly.
        # Either way only the HARD_ORACLES stay load-bearing.
        violations = tuple(r for r in records if r.oracle in HARD_ORACLES)
        degradations = tuple(r for r in records if r.oracle not in HARD_ORACLES)

    if status is None:
        if violations:
            status = "violation"
        elif degradations:
            status = "degraded"
        else:
            status = "ok"
    return finish(
        status,
        violations=violations,
        degradations=degradations,
        total_steps=total_steps,
        note=note,
    )
