"""The L0-L5 layer ladder on paper-sweep's protocols and seeds.

Each stage reruns the same trials with one more layer stacked on:

- L0: build the trial's schedule and draw exactly the slots the real run drew;
- L1: the simulator loop over spin programs that take, per process, exactly
  the steps the real run charged, on an object whose ``apply`` does nothing;
- L2: the same loop replaying the real run's operations on its real objects;
- L3: the real protocol generators (no hooks);
- L4: plus ``MetricsHook``;
- L5: plus the four invariant monitors and the built-in trace recorder.

Every stage charges the same steps against the same schedule, so the
difference between adjacent stages, divided by the steps, is the marginal
cost per step of the layer that stage adds.  Protocol instances, monitors
and replay programs are built before the clock starts.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List

from catalog import LADDER_STAGES as STAGES


class _NullObject:
    """A shared object whose operations cost nothing beyond dispatch."""

    name = "null"

    def apply(self, operation: Any, pid: int) -> None:
        return None


def _spin(count: int, operation: Any) -> Callable:
    def program(ctx: Any):
        for _ in range(count):
            yield operation
    return program


def _replay(operations: List[Any]) -> Callable:
    def program(ctx: Any):
        for operation in operations:
            yield operation
    return program


def run_ladder(protocols: List[tuple], seed_of: Callable[[int], int],
               trials: int, reps: int) -> Dict[str, float]:
    """Return ``ladder.<stage>_ns_per_step`` for the given protocols.

    ``protocols`` holds ``(name, n, factory, ...)`` rows; ``seed_of(index)``
    is the master seed of protocol ``index``'s trials.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.faults import StepHook
    from repro.runtime.monitors import (
        AdoptCommitCoherenceMonitor,
        RegisterSemanticsMonitor,
        ValidityMonitor,
        WaitFreedomWatchdog,
    )
    from repro.runtime.operations import Read
    from repro.runtime.rng import SeedTree
    from repro.runtime.scheduler import Schedule
    from repro.runtime.simulator import run_programs
    from repro.workloads.schedules import make_schedule

    class Capture(StepHook):
        """Records each process's executed operations, in order."""

        def __init__(self, n: int):
            self.ops: List[List[Any]] = [[] for _ in range(n)]

        def after_step(self, pid, global_steps, operation, result):
            self.ops[pid].append(operation)

    class Counted(Schedule):
        """Passes a schedule through, counting the slots drawn."""

        def __init__(self, inner: Any):
            self.inner = inner
            self.n = inner.n
            self.drawn = 0

        def __iter__(self):
            for pid in self.inner:
                self.drawn += 1
                yield pid

    spin_op = Read(_NullObject())
    cases = []
    for index, (_, n, factory, *_) in enumerate(protocols):
        for trial in range(trials):
            seeds = SeedTree(seed_of(index)).child(f"trial-{trial}")
            capture = Capture(n)
            schedule = Counted(
                make_schedule("random", n, seeds.child("schedule")))
            result = run_programs([factory().program] * n, schedule, seeds,
                                  inputs=list(range(n)), hooks=[capture])
            cases.append({
                "n": n, "seeds": seeds, "factory": factory,
                "steps": [result.steps_by_pid[pid] for pid in range(n)],
                "slots": schedule.drawn, "ops": capture.ops,
            })
    total_steps = sum(sum(case["steps"]) for case in cases)

    def schedule_of(case: Dict[str, Any]) -> Any:
        return make_schedule("random", case["n"], case["seeds"].child("schedule"))

    def l0(case, prepared):
        drawn = iter(schedule_of(case))
        for _ in range(case["slots"]):
            next(drawn)

    def simulate(programs_of, options):
        def stage(case, prepared):
            run_programs(prepared, schedule_of(case), case["seeds"],
                         inputs=list(range(case["n"])), **options())
        return stage, programs_of

    def spin_programs(case):
        return [_spin(count, spin_op) for count in case["steps"]]

    def replay_programs(case):
        return [_replay(ops) for ops in case["ops"]]

    def protocol_programs(case):
        return [case["factory"]().program] * case["n"]

    def monitors_for(case):
        inputs = list(range(case["n"]))
        return [ValidityMonitor(inputs, strict=False),
                AdoptCommitCoherenceMonitor(strict=False),
                WaitFreedomWatchdog(10**9, strict=False),
                RegisterSemanticsMonitor(strict=False)]

    stages = [
        (l0, lambda case: None),
        simulate(spin_programs, dict),
        simulate(replay_programs, dict),
        simulate(protocol_programs, dict),
        simulate(protocol_programs, lambda: {"metrics": MetricsRegistry()}),
    ]

    def l5(case, prepared):
        programs, hooks = prepared
        run_programs(programs, schedule_of(case), case["seeds"],
                     inputs=list(range(case["n"])), hooks=hooks,
                     metrics=MetricsRegistry(), record_trace=True)

    stages.append((l5, lambda case: (protocol_programs(case),
                                     monitors_for(case))))

    samples: List[List[float]] = [[] for _ in stages]
    clock = time.perf_counter_ns
    for _ in range(reps):
        for position, (stage, prepare) in enumerate(stages):
            prepared = [prepare(case) for case in cases]
            start = clock()
            for case, ready in zip(cases, prepared):
                stage(case, ready)
            samples[position].append(clock() - start)
    medians = [statistics.median(values) for values in samples]
    metrics = {}
    previous = 0.0
    for name, median in zip(STAGES, medians):
        metrics[f"ladder.{name}_ns_per_step"] = (median - previous) / total_steps
        previous = median
    metrics["ladder.steps"] = total_steps
    return metrics
