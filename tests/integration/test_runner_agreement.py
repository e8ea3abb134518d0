"""The oblivious and adaptive runners share one step loop.

An adaptive adversary that replays a fixed pid sequence, passing over pids
that are no longer live, makes the same choices as that sequence run as an
explicit schedule, where slots of finished or crashed processes are free.
So the two runners must agree on everything a run produces -- outputs, step
counts, crashes, metrics and hook-recorded events -- with faults, metrics,
tracing and the four monitors attached.  Both runners also stop at the step
limit the same way: before the finish of the step that crossed it.
"""

from dataclasses import astuple
from itertools import islice

import pytest

from repro import catalog
from repro.errors import StepLimitExceededError
from repro.memory.register import AtomicRegister
from repro.obs.metrics import MetricsHook, MetricsRegistry
from repro.obs.tracing import TraceRecorder
from repro.runtime.adaptive import AdaptiveAdversary, run_adaptive_programs
from repro.runtime.faults import CrashFault, FaultPlan, StallFault
from repro.runtime.hooks import StepHook
from repro.runtime.monitors import (
    AdoptCommitCoherenceMonitor,
    RegisterSemanticsMonitor,
    ValidityMonitor,
    WaitFreedomWatchdog,
)
from repro.runtime.operations import Write
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import ExplicitSchedule
from repro.runtime.simulator import run_programs
from repro.workloads.schedules import make_schedule

SLOTS = 20_000
SKIP_GUARD = 5_000


class ReplayAdversary(AdaptiveAdversary):
    """Replays ``slots`` in order, passing over pids that are not live."""

    def __init__(self, slots):
        self._slots = iter(slots)

    def choose(self, view):
        live = view.unfinished()
        for pid in self._slots:
            if pid in live:
                return pid
        raise AssertionError("replayed sequence ran out")


def hooks_for(n, inputs):
    """A crash, a stall, metrics, tracing and the four monitors."""
    registry = MetricsRegistry()
    recorder = TraceRecorder()
    plan = FaultPlan(
        crashes=(CrashFault(pid=0, after_steps=1),),
        stalls=(StallFault(pid=n - 1, start_step=0, duration=1),),
    )
    hooks = [
        plan.injector(),
        ValidityMonitor(inputs, strict=False, metrics=registry),
        AdoptCommitCoherenceMonitor(strict=False, metrics=registry),
        WaitFreedomWatchdog(100_000, strict=False, metrics=registry),
        RegisterSemanticsMonitor(strict=False, metrics=registry),
        MetricsHook(registry),
        recorder,
    ]
    return hooks, registry, recorder


def observe(runner, name, n, seed):
    inputs = list(range(n))
    # The stalled pid's first slot is withheld, then pid 0 steps once and
    # crashes at its next slot.
    slots = [n - 1, 0, 0] + list(islice(
        make_schedule("random", n, SeedTree(seed).child("schedule")), SLOTS
    ))
    hooks, registry, recorder = hooks_for(n, inputs)
    programs = [catalog.get(name).factory(n).program] * n
    options = dict(inputs=inputs, hooks=hooks, skip_guard=SKIP_GUARD,
                   record_trace=True)
    if runner == "oblivious":
        result = run_programs(programs, ExplicitSchedule(slots, n),
                              SeedTree(seed), **options)
    else:
        result = run_adaptive_programs(programs, ReplayAdversary(slots),
                                       SeedTree(seed), **options)
    violations = [
        (type(hook).__name__, len(hook.violations))
        for hook in hooks if hasattr(hook, "violations")
    ]
    return {
        "outputs": result.outputs,
        "steps_by_pid": result.steps_by_pid,
        "crashed": result.crashed,
        "completed": result.completed,
        "trace": [astuple(event) for event in result.trace.events],
        "metrics": registry.to_json(),
        "events": recorder.events,
        "violations": violations,
    }


@pytest.mark.parametrize("n", (2, 5))
@pytest.mark.parametrize("name", catalog.names())
def test_replayed_adaptive_run_matches_oblivious_run(name, n):
    for seed in (1, 7):
        oblivious = observe("oblivious", name, n, seed)
        adaptive = observe("adaptive", name, n, seed)
        assert adaptive == oblivious
        assert oblivious["crashed"] == frozenset({0})
        assert oblivious["metrics"]["counters"]["sim.stalled_slots"] == 1


class FinishLog(StepHook):
    def __init__(self):
        self.finished = []

    def on_finish(self, pid, output):
        self.finished.append(pid)


class First(AdaptiveAdversary):
    def choose(self, view):
        return view.unfinished()[0]


@pytest.mark.parametrize("runner", ("oblivious", "adaptive"))
def test_step_limit_raises_before_the_finish_it_crossed(runner):
    """Three writes under ``step_limit=2``: the third write crosses the
    limit and would finish the process, but the limit is checked first."""
    register = AtomicRegister("r")

    def three_writes(ctx):
        for value in range(3):
            yield Write(register, value)
        return "done"

    log = FinishLog()
    options = dict(step_limit=2, hooks=[log])
    with pytest.raises(StepLimitExceededError) as info:
        if runner == "oblivious":
            run_programs([three_writes], ExplicitSchedule([0] * 5),
                         SeedTree(0), **options)
        else:
            run_adaptive_programs([three_writes], First(), SeedTree(0),
                                  **options)
    assert info.value.unfinished_pids == (0,)
    assert info.value.steps_by_pid == {0: 3}
    assert log.finished == []
    assert register.value == 2
