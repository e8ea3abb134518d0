"""Crash-robustness sweep: every conciliator survives every crash subset.

Wait-freedom is a per-process guarantee: whatever subset of processes
fail-stops, and whenever they do, the *survivors* must still terminate and
the values they return must still be valid.  This sweep exercises every
conciliator in the library against every subset of crashed processes on a
small ``n``, realizing the crashes both ways the repository supports:

- :class:`~repro.runtime.scheduler.CrashSchedule` — the adversary stops
  scheduling the victims (crash as a schedule property);
- :class:`~repro.runtime.faults.CrashFault` via a
  :class:`~repro.runtime.faults.FaultPlan` — the fault injector fail-stops
  the victims mid-run (crash as an injected fault).

Both realizations are in-model and must agree: the survivors see the same
subsequence of slots either way, so their outputs are identical.
"""

from functools import partial
from itertools import chain, combinations

import pytest

from repro import catalog
from repro.core.conciliator import run_conciliator
from repro.runtime.faults import CrashFault, FaultPlan
from repro.runtime.monitors import ValidityMonitor
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import CrashSchedule, RoundRobinSchedule

N = 3
INPUTS = list(range(N))

#: The catalog algorithms the CLI and service expose, built at ``N``.
CONCILIATORS = {
    name: partial(catalog.get(name).factory, N)
    for name in catalog.names("exposed")
}

# Every subset of processes, including nobody and everybody.
CRASH_SUBSETS = list(
    chain.from_iterable(
        combinations(range(N), size) for size in range(N + 1)
    )
)


def run_with_fault_plan(factory, crashed, after_steps, seed):
    plan = FaultPlan(
        crashes=tuple(CrashFault(pid, after_steps=after_steps) for pid in crashed)
    )
    monitor = ValidityMonitor(allowed_inputs=INPUTS, strict=False)
    seeds = SeedTree(seed)
    result = run_conciliator(
        factory(),
        INPUTS,
        RoundRobinSchedule(N),
        seeds,
        hooks=[plan.injector(), monitor],
        allow_partial=True,
        skip_guard=5_000,
    )
    return result, monitor


def run_with_crash_schedule(factory, crashed, after_steps, seed):
    schedule = CrashSchedule(
        RoundRobinSchedule(N), {pid: after_steps for pid in crashed}
    )
    monitor = ValidityMonitor(allowed_inputs=INPUTS, strict=False)
    seeds = SeedTree(seed)
    result = run_conciliator(
        factory(),
        INPUTS,
        schedule,
        seeds,
        hooks=[monitor],
        allow_partial=True,
        skip_guard=200,  # survivors finish long before this many free slots
    )
    return result, monitor


@pytest.mark.parametrize("name", sorted(CONCILIATORS))
class TestCrashSubsets:
    def test_survivors_terminate_and_validity_holds(self, name):
        factory = CONCILIATORS[name]
        for crashed in CRASH_SUBSETS:
            for after_steps in (0, 2):
                result, monitor = run_with_fault_plan(
                    factory, crashed, after_steps, seed=17
                )
                assert result.crashed == frozenset(crashed), (crashed, after_steps)
                assert result.survivors_completed, (crashed, after_steps)
                assert set(result.outputs) == set(range(N)) - set(crashed)
                assert monitor.ok, monitor.violations
                for value in result.outputs.values():
                    assert value in INPUTS

    def test_crash_schedule_realization_agrees_with_fault_plan(self, name):
        """Crash-as-schedule and crash-as-fault are the same adversary:
        survivors receive the identical slot subsequence and must return
        identical values."""
        factory = CONCILIATORS[name]
        for crashed in CRASH_SUBSETS:
            if len(crashed) == N:
                continue  # no survivors: nothing to compare
            via_plan, _ = run_with_fault_plan(factory, crashed, 2, seed=23)
            via_schedule, schedule_monitor = run_with_crash_schedule(
                factory, crashed, 2, seed=23
            )
            survivors = set(range(N)) - set(crashed)
            assert set(via_schedule.outputs) >= survivors, crashed
            for pid in survivors:
                assert via_plan.outputs[pid] == via_schedule.outputs[pid], crashed
                assert (
                    via_plan.steps_by_pid[pid] == via_schedule.steps_by_pid[pid]
                ), crashed
            assert schedule_monitor.ok


class TestNoCrashBaseline:
    @pytest.mark.parametrize("name", sorted(CONCILIATORS))
    def test_empty_crash_set_is_a_normal_run(self, name):
        result, monitor = run_with_fault_plan(
            CONCILIATORS[name], (), after_steps=0, seed=31
        )
        assert result.completed
        assert result.crashed == frozenset()
        assert len(result.outputs) == N
        assert monitor.ok
