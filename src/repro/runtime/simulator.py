"""The discrete-event simulator: executes a schedule against processes.

This is the heart of the substrate.  Given shared objects, processes and an
oblivious schedule, :class:`Simulator` repeatedly takes the next pid from the
schedule and lets that process execute exactly one atomic operation.  The
loop ends when every process has finished; slots for finished processes are
skipped for free, exactly as the model specifies ("once a process has
finished its protocol, any steps allocated to it become no-ops; these no-ops
are not included when computing the complexity").  Adaptive adversaries
(:mod:`repro.runtime.adaptive`) run through the same loop: their picks take
the schedule's place.

Determinism: a run is a pure function of (programs, inputs, schedule, seed
tree), so every experiment in the repository can be reproduced from a single
master seed.  Fault injection preserves this: a
:class:`~repro.runtime.faults.FaultPlan` triggers on charged step counts
only, so a faulted run is a pure function of the same tuple plus the plan.

Step hooks (:class:`~repro.runtime.hooks.StepHook`) are consulted at every
slot: an injector may crash a process, withhold its slot, or intercept an
operation, while invariant monitors (:mod:`repro.runtime.monitors`) observe
every charged step and completion to check validity, coherence, and
wait-freedom inline.  Each callback is dispatched only to the hooks that
override it (:func:`~repro.runtime.hooks.hook_methods`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import (
    ScheduleExhaustedError,
    SimulationError,
    StepLimitExceededError,
)
from repro.runtime.hooks import (
    CRASH,
    HOOK_STAGES,
    SKIP,
    InterceptedResult,
    StepHook,
    _note_hook_failure,
    hook_methods,
)
from repro.runtime.process import Process, ProcessContext, Program
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree, _process_streams
from repro.runtime.scheduler import Schedule
from repro.runtime.trace import TraceEvent, TraceRecorder

__all__ = ["Simulator", "run_programs"]

_DEFAULT_STEP_LIMIT = 50_000_000


class Simulator:
    """Executes one run of a protocol under an oblivious schedule.

    Args:
        processes: the participating processes (pids must be 0..n-1, unique).
        schedule: the adversary's schedule.  Must be independent of the
            processes' randomness; using :class:`~repro.runtime.rng.SeedTree`
            branches for both makes this structural.  An adaptive run
            passes the adversary's picks instead
            (:func:`~repro.runtime.adaptive.run_adaptive_programs`).
        record_trace: if True, record every executed operation in a
            :class:`~repro.runtime.trace.TraceRecorder` (costs memory).
        step_limit: safety valve; a run exceeding this many charged steps
            raises :class:`StepLimitExceededError` instead of spinning
            forever.  Randomized wait-free protocols terminate with
            probability 1, so hitting this limit indicates a bug or an
            astronomically unlucky seed.
        hooks: :class:`~repro.runtime.hooks.StepHook` instances consulted
            at every slot — fault injectors first, then monitors, so
            monitors observe the post-fault execution.  Hooked and
            unhooked runs share one step loop, which calls each callback
            only on the hooks that override it: a run with no hooks, or
            none that override a given callback, spends one empty-list
            test on it per step.
        skip_guard: consecutive free-slot threshold before the run is
            declared starved (default ``max(100_000, 1_000 * n)``).  Free
            slots are those naming a finished or crashed process, or a pid
            with no process (a schedule may cover more pids than there are
            processes), plus slots withheld by a hook.  Fault sweeps that
            starve processes on purpose lower it so stuck runs fail fast.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`; when
            given, a :class:`~repro.obs.metrics.MetricsHook` is appended to
            the hook list and the registry is surfaced on
            ``RunResult.metrics``.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        schedule: Schedule,
        *,
        record_trace: bool = False,
        step_limit: int = _DEFAULT_STEP_LIMIT,
        hooks: Sequence[StepHook] = (),
        skip_guard: Optional[int] = None,
        metrics: Optional[Any] = None,
    ):
        by_pid = {process.context.pid: process for process in processes}
        if sorted(by_pid) != list(range(len(processes))):
            pids = sorted(process.pid for process in processes)
            raise SimulationError(f"process pids must be 0..n-1, got {pids}")
        if schedule.n < len(processes):
            raise SimulationError(
                f"schedule covers {schedule.n} processes but {len(processes)} "
                "were supplied"
            )
        if skip_guard is not None and skip_guard < 1:
            raise SimulationError(f"skip_guard must be >= 1, got {skip_guard}")
        self.processes: Dict[int, Process] = by_pid
        self.n = len(processes)
        self.schedule = schedule
        self.step_limit = step_limit
        self.hooks: List[StepHook] = list(hooks)
        self.metrics = metrics
        if metrics is not None:
            # Imported lazily: repro.obs builds on the runtime layer, so
            # the runtime only touches it when metrics are requested.
            from repro.obs.metrics import MetricsHook

            self.hooks.append(MetricsHook(metrics))
        self.skip_guard = skip_guard
        self.trace: Optional[TraceRecorder] = TraceRecorder() if record_trace else None
        self._steps_by_pid: Dict[int, int] = dict.fromkeys(by_pid, 0)
        # The processes still to finish, keyed by pid: finished and crashed
        # processes leave it, so one lookup tells the loop a slot is free.
        self._unfinished: Dict[int, Process] = dict(self.processes)
        self._crashed: set = set()
        # Per callback, the hook methods this run calls (built by run()).
        self._hook_methods: Dict[str, List[Callable[..., Any]]] = {}

    @property
    def crashed_pids(self) -> frozenset:
        """Pids fail-stopped by fault injection during this run."""
        return frozenset(self._crashed)

    def run(self, *, allow_partial: bool = False) -> RunResult:
        """Execute the schedule until every surviving process finishes.

        Returns a :class:`RunResult`.  If the schedule ends first, raises
        :class:`ScheduleExhaustedError` unless ``allow_partial`` is True, in
        which case a partial result (``completed=False``) is returned —
        useful for deliberately starving processes in tests.  Processes
        crashed by a fault hook do not count as unfinished: wait-freedom
        demands only that the survivors terminate.
        """
        self._hook_methods = {
            stage: hook_methods(self.hooks, stage) for stage in HOOK_STAGES
        }
        emit = self._emit
        live = self._unfinished
        emit("on_run_start", self)
        for process in self.processes.values():
            if not process.started:
                process.start()
            if process.finished:
                live.pop(process.pid, None)
                emit("on_finish", process.pid, process.output, pid=process.pid)

        # Starvation guard: an infinite schedule that never again names an
        # unfinished process (e.g. after crashes) would spin forever on free
        # no-ops; after this many consecutive skips we declare starvation.
        skip_guard = (
            self.skip_guard
            if self.skip_guard is not None
            else max(100_000, 1_000 * self.n)
        )
        if live:
            self._loop(skip_guard, allow_partial)

        outputs = {
            pid: process.output
            for pid, process in self.processes.items()
            if process.finished
        }
        result = RunResult(
            n=self.n,
            outputs=outputs,
            steps_by_pid=dict(self._steps_by_pid),
            completed=not live and not self._crashed,
            trace=self.trace,
            crashed=frozenset(self._crashed),
            metrics=self.metrics,
        )
        emit("on_run_end", result)
        return result

    def _loop(self, skip_guard: int, allow_partial: bool) -> None:
        """The step loop, one copy for hooked and unhooked runs alike.

        Everything a slot touches is hoisted into locals.  The hooks are
        called through the run's per-callback method lists, so a callback
        no hook overrides costs one empty-list test per step, and trace
        work sits behind a test of ``trace``.  The loop keeps going through
        ``iter(schedule)``, ``SharedObject.apply`` and
        ``Process.complete_step``: those are the seams at which the
        step-cost ledger times the schedule, memory and protocol layers.
        """
        live = self._unfinished
        steps_by_pid = self._steps_by_pid
        hooks = self.hooks
        before_step = self._hook_methods["before_step"]
        intercept = self._hook_methods["intercept"]
        after_step = self._hook_methods["after_step"]
        on_finish = self._hook_methods["on_finish"]
        trace = self.trace
        step_limit = self.step_limit
        find_live = live.get
        step_index = 0
        consecutive_skips = 0
        for pid in self.schedule:
            process = find_live(pid)
            if process is None:
                # Free no-op: the model does not charge finished (or
                # crashed) processes for slots they no longer use; a pid
                # with no process at all is wasted the same way.
                consecutive_skips += 1
                if consecutive_skips >= skip_guard:
                    if allow_partial:
                        return
                    raise ScheduleExhaustedError(
                        f"processes {sorted(live)} appear "
                        f"starved: {skip_guard} consecutive slots went to "
                        "finished, crashed or absent processes",
                        unfinished_pids=live,
                        steps_by_pid=steps_by_pid,
                    )
                continue
            operation = process.pending_operation
            if before_step:
                # Crash wins over skip over execute; a crash ends the
                # consultation.
                action: Optional[str] = None
                process_steps = steps_by_pid[pid]
                for method in before_step:
                    try:
                        decision = method(pid, process_steps, step_index,
                                          operation)
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
                    self._crash(pid)
                    if not live:
                        return
                    continue
                if action == SKIP:
                    self._emit("on_skip", pid, step_index,
                               pid=pid, step=step_index)
                    consecutive_skips += 1
                    if consecutive_skips >= skip_guard:
                        if allow_partial:
                            return
                        raise ScheduleExhaustedError(
                            f"processes {sorted(live)} appear "
                            f"starved: {skip_guard} consecutive slots were "
                            "withheld by fault injection",
                            unfinished_pids=live,
                            steps_by_pid=steps_by_pid,
                        )
                    continue
            consecutive_skips = 0
            if operation is None:
                raise SimulationError(
                    f"process {pid} scheduled with no pending operation"
                )
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
            steps_by_pid[pid] += 1
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
            step_index += 1
            if step_index > step_limit:
                raise StepLimitExceededError(
                    f"run exceeded step limit {step_limit}",
                    unfinished_pids=live,
                    steps_by_pid=steps_by_pid,
                )
            if process.finished:
                del live[pid]
                if on_finish:
                    self._emit("on_finish", pid, process.output,
                               pid=pid, step=step_index)
                if not live:
                    return
        if not allow_partial and live:
            raise ScheduleExhaustedError(
                f"schedule ended with processes {sorted(live)} unfinished",
                unfinished_pids=live,
                steps_by_pid=steps_by_pid,
            )

    def _emit(
        self,
        stage: str,
        *args: Any,
        pid: Optional[int] = None,
        step: Optional[int] = None,
    ) -> None:
        """Call the run's ``stage`` hook methods in order, noting failures."""
        for method in self._hook_methods[stage]:
            try:
                method(*args)
            except BaseException as error:
                _note_hook_failure(error, self.hooks, method, stage,
                                   pid=pid, global_step=step)
                raise

    def _crash(self, pid: int) -> None:
        """Fail-stop ``pid``: it keeps its state but never steps again."""
        self._crashed.add(pid)
        del self._unfinished[pid]
        self._emit("on_crash", pid, self._steps_by_pid[pid], pid=pid)


def _build_processes(
    programs: Sequence[Program],
    seeds: SeedTree,
    inputs: Optional[Sequence[Any]],
) -> List[Process]:
    """One process per program, each with a private RNG from the
    ``"algorithm"`` branch of ``seeds`` and its input, if any."""
    n = len(programs)
    if inputs is not None and len(inputs) != n:
        raise SimulationError(
            f"got {len(inputs)} inputs for {n} programs; they must match"
        )
    if inputs is None:
        inputs = [None] * n
    return [
        Process(ProcessContext(pid, n, rng, inputs[pid]), program)
        for pid, (program, rng) in enumerate(
            zip(programs, _process_streams(seeds, n))
        )
    ]


def run_programs(
    programs: Sequence[Program],
    schedule: Schedule,
    seeds: SeedTree,
    *,
    inputs: Optional[Sequence[Any]] = None,
    record_trace: bool = False,
    step_limit: int = _DEFAULT_STEP_LIMIT,
    allow_partial: bool = False,
    hooks: Sequence[StepHook] = (),
    skip_guard: Optional[int] = None,
    metrics: Optional[Any] = None,
) -> RunResult:
    """Convenience wrapper: build processes from programs and run them.

    Each process receives a private RNG from the ``"algorithm"`` branch of
    ``seeds``; the schedule was (by convention) built from the ``"schedule"``
    branch, so the two are independent as the oblivious model requires.

    Args:
        programs: one program per process.
        schedule: the adversary schedule.
        seeds: seed tree for this run.
        inputs: optional input values, one per process.
        hooks: fault injectors and invariant monitors for this run.
        skip_guard: starvation threshold override (see :class:`Simulator`).
        metrics: optional metrics registry populated during the run and
            surfaced on ``RunResult.metrics`` (see :class:`Simulator`).
    """
    simulator = Simulator(
        _build_processes(programs, seeds, inputs),
        schedule,
        record_trace=record_trace,
        step_limit=step_limit,
        hooks=hooks,
        skip_guard=skip_guard,
        metrics=metrics,
    )
    return simulator.run(allow_partial=allow_partial)
