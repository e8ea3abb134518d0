"""Hooked and unhooked runs take the same path through the step loop.

The simulator runs with and without hooks in one loop, with the hook work
behind a local boolean.  A pass-through :class:`StepHook` (every method the
no-op default) must therefore leave a run exactly as it was: same outputs,
same per-process step counts, same completion and crash sets, and the same
errors when a run cannot finish.  This is checked for every catalog
conciliator plus register consensus under four schedule families and the
crash-half adversary.

The adaptive runner keeps its hook work behind a local boolean the same
way, so the same holds there: under every adaptive strategy and the
late-δ and noisy-σ ladder rungs, a pass-through hook leaves outputs, step
counts, crashed pids and the trace unchanged, and the step-limit and
starvation errors match.
"""

import pytest

from repro import catalog
from repro.core.consensus import register_consensus
from repro.errors import (
    ScheduleExhaustedError,
    StepLimitExceededError,
)
from repro.runtime.adaptive import (
    ADAPTIVE_FAMILIES,
    LongestFirstAdversary,
    make_adaptive,
    run_adaptive_programs,
)
from repro.runtime.adversary import make_adversary
from repro.runtime.faults import FaultPlan, StallFault, StepHook
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import LimitedSchedule
from repro.runtime.simulator import run_programs
from repro.workloads.schedules import make_schedule

N = 6
INPUTS = list(range(N))
SEEDS = (3, 2012)

#: Every catalog conciliator plus register consensus (name -> factory).
PROTOCOLS = {name: catalog.get(name).factory for name in catalog.names()}
PROTOCOLS["register-consensus"] = lambda n: register_consensus(
    n, value_domain=list(range(n))
)

FAMILIES = ("random", "round-robin", "blocks", "permuted", "crash-half")


def run(name, schedule, seed, hooked, **options):
    programs = [PROTOCOLS[name](N).program] * N
    return run_programs(
        programs, schedule, SeedTree(seed), inputs=INPUTS,
        hooks=[StepHook()] if hooked else (), **options,
    )


def observed(result):
    return (result.outputs, result.steps_by_pid, result.completed,
            result.crashed)


def raised(name, schedule_of, seed, hooked, **options):
    with pytest.raises((ScheduleExhaustedError, StepLimitExceededError)) as info:
        run(name, schedule_of(), seed, hooked, **options)
    error = info.value
    return type(error), str(error), error.unfinished_pids


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_pass_through_hook_changes_nothing(name, family):
    for seed in SEEDS:
        def schedule():
            return make_schedule(family, N, SeedTree(seed).child("schedule"))

        # crash-half may starve its victims, so it runs partial with a
        # short starvation guard; the other families always complete.
        partial = family == "crash-half"
        options = {"allow_partial": True, "skip_guard": 500} if partial else {}
        bare = run(name, schedule(), seed, hooked=False, **options)
        hooked = run(name, schedule(), seed, hooked=True, **options)
        assert observed(hooked) == observed(bare)
        assert bare.completed or partial


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestSameErrors:
    """Each way a run can fail raises identically in both modes."""

    def assert_same(self, name, schedule_of, **options):
        bare = raised(name, schedule_of, 7, hooked=False, **options)
        hooked = raised(name, schedule_of, 7, hooked=True, **options)
        assert hooked == bare
        assert bare[2], "the error must name the unfinished processes"
        return bare

    def test_schedule_ends(self, name):
        kind, message, _ = self.assert_same(
            name,
            lambda: LimitedSchedule(
                make_schedule("random", N, SeedTree(7).child("schedule")), 5
            ),
        )
        assert kind is ScheduleExhaustedError
        assert "schedule ended" in message

    def test_starvation_guard(self, name):
        kind, message, _ = self.assert_same(
            name,
            lambda: make_schedule("crash-half", N, SeedTree(7).child("schedule")),
            skip_guard=500,
        )
        assert kind is ScheduleExhaustedError
        assert "starved" in message

    def test_step_limit(self, name):
        kind, message, _ = self.assert_same(
            name,
            lambda: make_schedule("random", N, SeedTree(7).child("schedule")),
            step_limit=4,
        )
        assert kind is StepLimitExceededError
        assert "step limit 4" in message


#: Adaptive strategies and ladder rungs (label -> builder taking a seed).
ADVERSARIES = {name: (lambda seed, name=name: make_adaptive(name, seed))
               for name in ADAPTIVE_FAMILIES}
ADVERSARIES["late-2(sift-killer)"] = lambda seed: make_adversary(
    "late", inner="sift-killer", seed=seed, delay=2)
ADVERSARIES["noisy-0.5(pending-reads)"] = lambda seed: make_adversary(
    "noisy", inner="pending-reads", seed=seed, noise=0.5)


def run_adaptive(name, adversary, seed, hooks, **options):
    programs = [PROTOCOLS[name](N).program] * N
    return run_adaptive_programs(
        programs, ADVERSARIES[adversary](seed), SeedTree(seed),
        inputs=INPUTS, record_trace=True, hooks=hooks, **options,
    )


def raised_adaptive(name, make, hooks, **options):
    """The error a fresh adaptive run raises, as (type, message, pids)."""
    programs = [PROTOCOLS[name](N).program] * N
    with pytest.raises((ScheduleExhaustedError, StepLimitExceededError)) as info:
        run_adaptive_programs(programs, make(), SeedTree(7), inputs=INPUTS,
                              hooks=hooks, **options)
    error = info.value
    return type(error), str(error), error.unfinished_pids


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_pass_through_hook_changes_nothing_adaptive(name, adversary):
    for seed in SEEDS:
        bare = run_adaptive(name, adversary, seed, hooks=())
        hooked = run_adaptive(name, adversary, seed, hooks=[StepHook()])
        assert observed(hooked) == observed(bare)
        assert hooked.trace.events == bare.trace.events
        assert bare.completed


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestSameErrorsAdaptive:
    """The adaptive runner's failures raise identically in both modes."""

    def assert_same(self, name, make, hooks, **options):
        bare = raised_adaptive(name, make, hooks(), **options)
        hooked = raised_adaptive(name, make, [*hooks(), StepHook()], **options)
        assert hooked == bare
        assert bare[2], "the error must name the unfinished processes"
        return bare

    def test_step_limit(self, name):
        kind, message, _ = self.assert_same(
            name, lambda: make_adaptive("random-adaptive", 7), list,
            step_limit=4,
        )
        assert kind is StepLimitExceededError
        assert "step limit 4" in message

    def test_starvation_guard(self, name):
        # Longest-first keeps naming pid 0 while it is stalled: no step is
        # charged, so its lead never changes and the guard must trip.
        stall = FaultPlan(stalls=(StallFault(pid=0, start_step=0,
                                             duration=10**9),))
        kind, message, _ = self.assert_same(
            name, LongestFirstAdversary, lambda: [stall.injector()],
            skip_guard=50,
        )
        assert kind is ScheduleExhaustedError
        assert "starved" in message
