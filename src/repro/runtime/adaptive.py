"""Adaptive adversaries: the negative control for obliviousness.

Section 5 of the paper ("Strength of the adversary") stresses that the new
algorithms depend on the adversary *not* seeing coin flips: the sifting
conciliator needs at least a **content-oblivious** adversary, because a
scheduler that can see whether a process is about to read or write the
round register can defeat the sift entirely.

This module implements that stronger adversary so the dependence can be
*measured* (experiment E18).  An :class:`AdaptiveAdversary` is consulted at
every step and may inspect an :class:`AdversaryView` — which process is
unfinished, what operation each would execute next (kind, target object,
written value), and current step counts.  This is strictly more power than
the oblivious model grants, and exactly the power the paper's analysis
forbids.

Provided strategies:

- :class:`PendingKindAdversary` — prefers processes whose next operation
  matches a kind (e.g. schedule all pending *reads* first).  Against
  Algorithm 2 this is the "sift killer": readers drain the rounds while
  registers are still empty, keep their own personae, and agreement
  collapses to near zero.
- :class:`LongestFirstAdversary` / :class:`ShortestFirstAdversary` — favour
  processes by accumulated step count (fairness attacks).
- :class:`RandomAdaptiveAdversary` — random choice; behaviourally identical
  to an oblivious random schedule, included as the experiment's control.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.errors import (
    ConfigurationError,
    ScheduleExhaustedError,
    SimulationError,
    StepLimitExceededError,
)
from repro.jsonio import expect_versioned
from repro.runtime.faults import (
    CRASH,
    HOOK_STAGES,
    SKIP,
    InterceptedResult,
    StepHook,
    _note_hook_failure,
    hook_methods,
)
from repro.runtime.operations import Operation
from repro.runtime.process import Process, ProcessContext, Program
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree
from repro.runtime.trace import TraceEvent, TraceRecorder

__all__ = [
    "ADAPTIVE_FAMILIES",
    "AdversaryView",
    "AdaptiveAdversary",
    "AdaptiveSpec",
    "PendingKindAdversary",
    "LongestFirstAdversary",
    "ShortestFirstAdversary",
    "RandomAdaptiveAdversary",
    "SiftKillerAdversary",
    "make_adaptive",
    "run_adaptive_programs",
]


class AdversaryView:
    """Read-only view of execution state offered to an adaptive adversary.

    ``live`` maps every runnable pid (unfinished and not crashed) to its
    process, in ascending pid order.  The runner owns that dict and deletes
    a process from it the moment it finishes or crashes, so the view never
    scans or sorts: :meth:`unfinished` is a copy of its keys.  The
    per-process queries take a runnable pid.
    """

    __slots__ = ("_live", "_steps")

    def __init__(self, live: Dict[int, Process], steps: Dict[int, int]):
        self._live = live
        self._steps = steps

    def unfinished(self) -> List[int]:
        """Pids that still have an operation to execute, sorted.

        Processes fail-stopped by a fault hook are excluded: a crashed
        process has no next operation for even an omniscient adversary to
        schedule.
        """
        return list(self._live)

    def pending_operation(self, pid: int) -> Optional[Operation]:
        """The operation ``pid`` would execute if scheduled now."""
        return self._live[pid].pending_operation

    def pending_kind(self, pid: int) -> Optional[str]:
        """Kind of the pending operation (``"read"``, ``"write"``, ...)."""
        operation = self._live[pid].pending_operation
        return None if operation is None else operation.kind

    def steps_taken(self, pid: int) -> int:
        return self._steps[pid]


class _AdaptiveRun:
    """What ``StepHook.on_run_start`` reads of an adaptive run.

    Oblivious runs pass their :class:`~repro.runtime.simulator.Simulator`;
    an adaptive run has none, so it passes this stand-in with the same
    attributes hooks use: the process count ``n``, the ``step_limit``, and
    ``_unfinished``, the live pid-to-process dict the runner shrinks as
    processes finish or crash (the metrics hook samples its length).
    """

    __slots__ = ("n", "step_limit", "_unfinished")

    def __init__(self, n: int, step_limit: int, live: Dict[int, Process]):
        self.n = n
        self.step_limit = step_limit
        self._unfinished = live


class AdaptiveAdversary:
    """Chooses the next process to run, seeing the full execution state."""

    def choose(self, view: AdversaryView) -> int:
        raise NotImplementedError


class PendingKindAdversary(AdaptiveAdversary):
    """Schedule processes whose pending op kind is earliest in ``priority``.

    ``priority`` is a sequence of kinds; a pending kind not listed ranks
    last.  Ties break round-robin by pid rotation so no process starves.
    """

    def __init__(self, priority: Sequence[str]):
        self.priority = list(priority)
        #: kind -> position of its first occurrence in ``priority``.
        self._ranks: Dict[str, int] = {}
        for rank, kind in enumerate(self.priority):
            self._ranks.setdefault(kind, rank)
        self._rotation = 0

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        if not candidates:
            raise SimulationError("adversary consulted with no runnable process")
        self._rotation += 1
        rotation = self._rotation
        modulus = max(candidates) + 1
        rank = self._ranks.get
        unlisted = len(self.priority)
        pending_kind = view.pending_kind
        # One integer key per candidate: rank first, then the rotated pid,
        # which is always below ``modulus``.
        return min(
            candidates,
            key=lambda pid: (rank(pending_kind(pid), unlisted) * modulus
                             + (pid + rotation) % modulus),
        )


class LongestFirstAdversary(AdaptiveAdversary):
    """Always run the process that has already taken the most steps."""

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        return max(candidates, key=lambda pid: (view.steps_taken(pid), -pid))


class ShortestFirstAdversary(AdaptiveAdversary):
    """Always run the process with the fewest steps (max fairness)."""

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        return min(candidates, key=lambda pid: (view.steps_taken(pid), pid))


class RandomAdaptiveAdversary(AdaptiveAdversary):
    """Uniform choice among unfinished processes (the oblivious control)."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        return candidates[self._rng.randrange(len(candidates))]


class SiftKillerAdversary(AdaptiveAdversary):
    """A content-aware strategy tuned against Algorithm 2.

    Ordering rules, strongest first:

    1. run any process about to *read an empty register* — it keeps its own
       persona, so no sifting happens;
    2. after a write to register X, run exactly one process that will read
       X — it adopts the value just written, and pairing each write with a
       single distinct reader spreads *different* personae to different
       readers instead of letting one writer convert many;
    3. otherwise run a writer.

    This inspects both pending operation kinds and register *contents*, so
    it models the content-aware adversary the paper's Section 5 warns
    about; the oblivious floor does not apply to it (experiment E18).
    """

    def __init__(self):
        self._last_write_target = None

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        if not candidates:
            raise SimulationError("adversary consulted with no runnable process")
        empty_readers = []
        busy_readers = []
        writers = []
        for pid in candidates:
            operation = view.pending_operation(pid)
            kind = None if operation is None else operation.kind
            if kind in ("read", "scan", "maxread"):
                target = getattr(operation.obj, "value", None)
                if target is None:
                    empty_readers.append(pid)
                else:
                    busy_readers.append((pid, operation.obj))
            else:
                writers.append(pid)
        if empty_readers:
            return empty_readers[0]
        if self._last_write_target is not None:
            for pid, obj in busy_readers:
                if obj is self._last_write_target:
                    self._last_write_target = None
                    return pid
        if writers:
            chosen = writers[0]
            operation = view.pending_operation(chosen)
            self._last_write_target = operation.obj
            return chosen
        return busy_readers[0][0] if busy_readers else candidates[0]


#: Named adaptive strategies, for experiment sweeps and fuzz scenarios.
ADAPTIVE_FAMILIES = (
    "pending-reads",
    "pending-writes",
    "longest-first",
    "shortest-first",
    "random-adaptive",
    "sift-killer",
)

_READ_KINDS = ("read", "scan", "maxread")
_WRITE_KINDS = ("write", "update", "maxwrite")


def make_adaptive(name: str, seed: int = 0) -> AdaptiveAdversary:
    """Build the named adaptive strategy (see :data:`ADAPTIVE_FAMILIES`)."""
    if name == "pending-reads":
        return PendingKindAdversary(_READ_KINDS)
    if name == "pending-writes":
        return PendingKindAdversary(_WRITE_KINDS)
    if name == "longest-first":
        return LongestFirstAdversary()
    if name == "shortest-first":
        return ShortestFirstAdversary()
    if name == "random-adaptive":
        return RandomAdaptiveAdversary(seed)
    if name == "sift-killer":
        return SiftKillerAdversary()
    raise ConfigurationError(
        f"unknown adaptive adversary {name!r}; choose from {ADAPTIVE_FAMILIES}"
    )


@dataclass(frozen=True)
class AdaptiveSpec:
    """A serializable, hashable description of one adaptive adversary.

    The adaptive counterpart of
    :class:`~repro.workloads.schedules.ScheduleSpec`: pins the strategy
    name and its private seed so a fuzz scenario that used an adaptive
    adversary replays identically from its JSON form.
    """

    name: str
    seed: int = 0

    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        if self.name not in ADAPTIVE_FAMILIES:
            raise ConfigurationError(
                f"unknown adaptive adversary {self.name!r}; choose from "
                f"{ADAPTIVE_FAMILIES}"
            )

    def build(self) -> AdaptiveAdversary:
        """Construct a fresh adversary instance (strategies are stateful)."""
        return make_adaptive(self.name, self.seed)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self._JSON_VERSION,
            "name": self.name,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "AdaptiveSpec":
        expect_versioned(
            data, "adaptive spec", cls._JSON_VERSION, key="version"
        )
        return cls(name=str(data["name"]), seed=int(data.get("seed", 0)))


def run_adaptive_programs(
    programs: Sequence[Program],
    adversary: AdaptiveAdversary,
    seeds: SeedTree,
    *,
    inputs: Optional[Sequence[Any]] = None,
    record_trace: bool = False,
    step_limit: int = 50_000_000,
    hooks: Sequence[StepHook] = (),
    skip_guard: Optional[int] = None,
) -> RunResult:
    """Execute programs under an adaptive adversary.

    The loop mirrors :class:`repro.runtime.simulator.Simulator` but asks the
    adversary for the next pid at every step instead of consuming a fixed
    schedule.  The runnable processes sit in one pid-ordered dict, shared
    with the :class:`AdversaryView` the adversary reads; a process leaves
    it when it finishes or crashes, and the run ends when it is empty
    (subject to ``step_limit``).  A pick outside that dict -- finished,
    crashed or no such pid -- raises :class:`~repro.errors.SimulationError`.

    ``hooks`` attaches the same :class:`~repro.runtime.faults.StepHook`
    instances the oblivious simulator takes — fault injectors may crash a
    process (it disappears from the adversary's view) or withhold slots
    (``on_skip`` is emitted for each), and invariant monitors observe every
    charged step, so the full monitor suite rides along adaptive runs too.
    As in the simulator, each callback is called only on the hooks that
    override it.  ``on_run_start`` is emitted once, before the processes
    start; adaptive runs have no
    :class:`~repro.runtime.simulator.Simulator`, so it receives a stand-in
    carrying ``n``, ``step_limit`` and the live processes.
    ``skip_guard`` bounds consecutive withheld slots (at least 1;
    default ``max(10_000, 1_000 * n)``) — an adversary that keeps naming a
    stalled process would otherwise spin forever.

    The loop must keep reaching the other layers through
    ``adversary.choose``, ``SharedObject.apply`` and
    ``Process.start``/``complete_step``: the benchmark's per-layer ledger
    times the adversary, memory and process layers at those seams.
    """
    n = len(programs)
    if inputs is not None and len(inputs) != n:
        raise SimulationError(
            f"got {len(inputs)} inputs for {n} programs; they must match"
        )
    if skip_guard is not None and skip_guard < 1:
        raise SimulationError(f"skip_guard must be >= 1, got {skip_guard}")
    algorithm_seeds = seeds.child("algorithm")
    processes: Dict[int, Process] = {}
    for pid, program in enumerate(programs):
        context = ProcessContext(
            pid=pid,
            n=n,
            rng=algorithm_seeds.child(f"process-{pid}").rng(),
            input_value=None if inputs is None else inputs[pid],
        )
        processes[pid] = Process(context, program)

    steps: Dict[int, int] = {pid: 0 for pid in processes}
    trace = TraceRecorder() if record_trace else None
    crashed: Set[int] = set()
    guard = skip_guard if skip_guard is not None else max(10_000, 1_000 * n)
    hooks = list(hooks)
    methods = {stage: hook_methods(hooks, stage) for stage in HOOK_STAGES}
    before_step = methods["before_step"]
    intercept = methods["intercept"]
    after_step = methods["after_step"]
    on_finish = methods["on_finish"]

    def emit(stage: str, *args: Any, pid: Optional[int] = None,
             step: Optional[int] = None) -> None:
        for method in methods[stage]:
            try:
                method(*args)
            except BaseException as error:
                _note_hook_failure(error, hooks, method, stage,
                                   pid=pid, global_step=step)
                raise

    live = dict(processes)
    emit("on_run_start", _AdaptiveRun(n, step_limit, live))
    for process in processes.values():
        process.start()
        if process.finished:
            del live[process.pid]
            emit("on_finish", process.pid, process.output, pid=process.pid)

    view = AdversaryView(live, steps)
    choose = adversary.choose
    find_live = live.get
    step_index = 0
    consecutive_skips = 0
    while live:
        pid = choose(view)
        process = find_live(pid)
        if process is None:
            raise SimulationError(
                f"adaptive adversary chose unrunnable process {pid}"
            )
        operation = process.pending_operation
        if before_step:
            # Crash wins over skip over execute; a crash ends the
            # consultation.
            action: Optional[str] = None
            process_steps = steps[pid]
            for method in before_step:
                try:
                    decision = method(pid, process_steps, step_index, operation)
                except BaseException as error:
                    _note_hook_failure(error, hooks, method, "before_step",
                                       pid=pid, global_step=step_index)
                    raise
                if decision == CRASH:
                    action = CRASH
                    break
                if decision == SKIP:
                    action = SKIP
            if action == CRASH:
                crashed.add(pid)
                del live[pid]
                emit("on_crash", pid, steps[pid], pid=pid)
                continue
            if action == SKIP:
                emit("on_skip", pid, step_index, pid=pid, step=step_index)
                consecutive_skips += 1
                if consecutive_skips >= guard:
                    raise ScheduleExhaustedError(
                        f"adaptive run appears starved: {guard} consecutive "
                        "slots were withheld by fault injection",
                        unfinished_pids=list(live),
                        steps_by_pid=steps,
                    )
                continue
            consecutive_skips = 0
        # The first hook to return a replacement result wins.  Each hook
        # list is tested before it is looped over: on the unhooked path the
        # test is cheaper than an empty loop.
        intercepted: Optional[InterceptedResult] = None
        if intercept:
            for method in intercept:
                try:
                    intercepted = method(pid, operation)
                except BaseException as error:
                    _note_hook_failure(error, hooks, method, "intercept",
                                       pid=pid, global_step=step_index)
                    raise
                if intercepted is not None:
                    break
        if intercepted is None:
            result = operation.obj.apply(operation, pid)
        else:
            result = intercepted.value
        steps[pid] += 1
        if trace is not None:
            trace.record(
                TraceEvent(
                    step=step_index,
                    pid=pid,
                    kind=operation.kind,
                    obj_name=operation.obj.name,
                    value=getattr(operation, "value", None),
                    result=result,
                )
            )
        if after_step:
            for method in after_step:
                try:
                    method(pid, step_index, operation, result)
                except BaseException as error:
                    _note_hook_failure(error, hooks, method, "after_step",
                                       pid=pid, global_step=step_index)
                    raise
        process.complete_step(result)
        if process.finished:
            del live[pid]
            if on_finish:
                emit("on_finish", pid, process.output,
                     pid=pid, step=step_index)
        step_index += 1
        if step_index > step_limit:
            raise StepLimitExceededError(
                f"adaptive run exceeded step limit {step_limit}",
                unfinished_pids=list(live),
                steps_by_pid=steps,
            )

    outputs = {
        pid: process.output
        for pid, process in processes.items()
        if process.finished
    }
    result = RunResult(
        n=n,
        outputs=outputs,
        steps_by_pid=dict(steps),
        completed=not crashed and len(outputs) == n,
        trace=trace,
        crashed=frozenset(crashed),
    )
    emit("on_run_end", result)
    return result
