"""Unit tests for the discrete-event simulator."""

import random

import pytest

from repro.errors import (
    ScheduleExhaustedError,
    SimulationError,
    StepLimitExceededError,
)
from repro.memory.register import AtomicRegister
from repro.runtime.operations import Read, Write
from repro.runtime.process import Process, ProcessContext
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import (
    ExplicitSchedule,
    LimitedSchedule,
    RandomSchedule,
    RoundRobinSchedule,
)
from repro.runtime.simulator import Simulator, run_programs


def write_then_read(register):
    def program(ctx):
        yield Write(register, ctx.pid)
        value = yield Read(register)
        return value

    return program


def make_processes(programs):
    return [
        Process(ProcessContext(pid=pid, n=len(programs), rng=random.Random(pid)), prog)
        for pid, prog in enumerate(programs)
    ]


class TestBasicExecution:
    def test_single_process_runs_to_completion(self):
        register = AtomicRegister("r")
        result = run_programs(
            [write_then_read(register)], RoundRobinSchedule(1), SeedTree(0)
        )
        assert result.completed
        assert result.outputs[0] == 0
        assert result.steps_by_pid[0] == 2

    def test_schedule_orders_operations(self):
        register = AtomicRegister("r")
        # 0 writes, 1 writes, then both read: both see 1's value.
        schedule = ExplicitSchedule([0, 1, 0, 1])
        result = run_programs(
            [write_then_read(register)] * 2, schedule, SeedTree(0)
        )
        assert result.outputs == {0: 1, 1: 1}

    def test_interleaving_changes_outcome(self):
        register = AtomicRegister("r")
        # 0 writes and reads before 1 moves: 0 sees itself.
        schedule = ExplicitSchedule([0, 0, 1, 1])
        result = run_programs(
            [write_then_read(register)] * 2, schedule, SeedTree(0)
        )
        assert result.outputs == {0: 0, 1: 1}

    def test_each_operation_costs_one_step(self):
        register = AtomicRegister("r")
        result = run_programs(
            [write_then_read(register)] * 3, RoundRobinSchedule(3), SeedTree(0)
        )
        assert result.steps_by_pid == {0: 2, 1: 2, 2: 2}
        assert result.total_steps == 6

    def test_finished_process_slots_are_free(self):
        register = AtomicRegister("r")
        # Process 0 finishes after 2 slots; the schedule keeps naming it,
        # but those slots are free no-ops not charged to anyone.
        schedule = ExplicitSchedule([0, 0, 0, 0, 0, 1, 1])
        result = run_programs(
            [write_then_read(register)] * 2, schedule, SeedTree(0)
        )
        assert result.completed
        assert result.steps_by_pid[0] == 2

    def test_run_stops_as_soon_as_all_finish(self):
        register = AtomicRegister("r")
        # Infinite schedule must not hang once everyone is done.
        result = run_programs(
            [write_then_read(register)] * 2, RoundRobinSchedule(2), SeedTree(0)
        )
        assert result.completed


class TestFailureModes:
    def test_exhausted_schedule_raises(self):
        register = AtomicRegister("r")
        with pytest.raises(ScheduleExhaustedError):
            run_programs(
                [write_then_read(register)] * 2,
                ExplicitSchedule([0], n=2),
                SeedTree(0),
            )

    def test_allow_partial_returns_partial_result(self):
        register = AtomicRegister("r")
        result = run_programs(
            [write_then_read(register)] * 2,
            ExplicitSchedule([0, 0], n=2),
            SeedTree(0),
            allow_partial=True,
        )
        assert not result.completed
        assert result.outputs == {0: 0}
        assert result.steps_by_pid[1] == 0

    def test_step_limit_trips(self):
        register = AtomicRegister("r")

        def forever(ctx):
            while True:
                yield Read(register)

        with pytest.raises(StepLimitExceededError):
            run_programs(
                [forever], RoundRobinSchedule(1), SeedTree(0), step_limit=100
            )

    def test_starvation_guard_with_allow_partial(self):
        register = AtomicRegister("r")

        def forever(ctx):
            while True:
                yield Read(register)

        def quick(ctx):
            yield Read(register)
            return "done"

        # pid 1 never appears in the schedule; pid 0 finishes, and the
        # infinite schedule then only names finished processes.
        from repro.runtime.scheduler import Schedule

        class OnlyZero(Schedule):
            n = 2

            def __iter__(self):
                while True:
                    yield 0

        result = run_programs(
            [quick, forever], OnlyZero(), SeedTree(0), allow_partial=True
        )
        assert not result.completed
        assert result.outputs == {0: "done"}

    def test_starvation_guard_raises_without_allow_partial(self):
        register = AtomicRegister("r")

        def forever(ctx):
            while True:
                yield Read(register)

        def quick(ctx):
            yield Read(register)
            return "done"

        from repro.runtime.scheduler import Schedule

        class OnlyZero(Schedule):
            n = 2

            def __iter__(self):
                while True:
                    yield 0

        with pytest.raises(ScheduleExhaustedError, match="starved"):
            run_programs([quick, forever], OnlyZero(), SeedTree(0))

    def test_absent_pid_slots_count_toward_the_guard(self):
        # A schedule may cover more pids than there are processes; slots
        # naming a pid with no process are free no-ops like any other, so
        # a schedule that names only those must trip the guard instead of
        # spinning.  The schedule is long but finite, so a regression
        # fails on "schedule ended" rather than hanging.
        from repro.runtime.scheduler import Schedule

        class ThenOnlyThree(Schedule):
            n = 4

            def __iter__(self):
                yield 0
                for _ in range(2_000_000):
                    yield 3

        register = AtomicRegister("r")
        with pytest.raises(ScheduleExhaustedError, match="starved") as info:
            run_programs([write_then_read(register)] * 2, ThenOnlyThree(),
                         SeedTree(0), skip_guard=1000)
        assert info.value.unfinished_pids == (0, 1)
        assert info.value.steps_by_pid == {0: 1, 1: 0}
        result = run_programs([write_then_read(register)] * 2,
                              ThenOnlyThree(), SeedTree(0), skip_guard=1000,
                              allow_partial=True)
        assert not result.completed
        assert result.steps_by_pid == {0: 1, 1: 0}

    @pytest.mark.parametrize("hooked", [False, True])
    def test_non_operation_mid_run_rejected(self, hooked):
        from repro.runtime.hooks import StepHook

        register = AtomicRegister("r")

        def program(ctx):
            yield Read(register)
            yield "not an operation"

        with pytest.raises(SimulationError, match="which is not an Operation"):
            run_programs([program], RoundRobinSchedule(1), SeedTree(0),
                         hooks=[StepHook()] if hooked else ())

    def test_mismatched_inputs_rejected(self):
        register = AtomicRegister("r")
        with pytest.raises(SimulationError):
            run_programs(
                [write_then_read(register)] * 2,
                RoundRobinSchedule(2),
                SeedTree(0),
                inputs=[1],
            )

    def test_bad_pids_rejected(self):
        register = AtomicRegister("r")
        processes = make_processes([write_then_read(register)] * 2)
        processes[1].context.pid = 5
        # Rebuild Process objects with a duplicate pid.
        bad = [
            Process(
                ProcessContext(pid=0, n=2, rng=random.Random(0)),
                write_then_read(register),
            ),
            Process(
                ProcessContext(pid=0, n=2, rng=random.Random(0)),
                write_then_read(register),
            ),
        ]
        with pytest.raises(SimulationError, match="pids"):
            Simulator(bad, RoundRobinSchedule(2))

    def test_schedule_too_small_rejected(self):
        register = AtomicRegister("r")
        processes = make_processes([write_then_read(register)] * 3)
        with pytest.raises(SimulationError, match="schedule covers"):
            Simulator(processes, RoundRobinSchedule(2))


class TestDeterminism:
    def test_same_seed_same_run(self):
        def randomized(ctx):
            register = shared
            if ctx.rng.random() < 0.5:
                yield Write(register, ctx.pid)
            value = yield Read(register)
            return value

        outcomes = []
        for _ in range(2):
            global shared
            shared = AtomicRegister("r")
            result = run_programs(
                [randomized] * 4, RandomSchedule(4, 77), SeedTree(5)
            )
            outcomes.append(result.outputs)
        assert outcomes[0] == outcomes[1]

    def test_trace_recording_optional(self):
        register = AtomicRegister("r")
        untraced = run_programs(
            [write_then_read(register)], RoundRobinSchedule(1), SeedTree(0)
        )
        assert untraced.trace is None
        register2 = AtomicRegister("r2")
        traced = run_programs(
            [write_then_read(register2)],
            RoundRobinSchedule(1),
            SeedTree(0),
            record_trace=True,
        )
        assert traced.trace is not None
        assert len(traced.trace) == 2


class TestHookFailureNotes:
    """A hook that raises gets pid/step/class context attached via add_note."""

    def run_with_hook(self, hook, n=2):
        register = AtomicRegister("r")
        return run_programs(
            [write_then_read(register)] * n,
            RoundRobinSchedule(n),
            SeedTree(0),
            hooks=[hook],
        )

    def test_before_step_failure_is_annotated(self):
        from repro.runtime.hooks import StepHook

        class Exploding(StepHook):
            def before_step(self, pid, process_steps, global_steps, operation):
                if global_steps == 3:
                    raise RuntimeError("boom")
                return None

        with pytest.raises(RuntimeError, match="boom") as excinfo:
            self.run_with_hook(Exploding())
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "Exploding" in notes
        assert "before_step" in notes
        assert "pid=1" in notes
        assert "global step=3" in notes

    def test_after_step_failure_is_annotated(self):
        from repro.runtime.hooks import StepHook

        class Exploding(StepHook):
            def after_step(self, pid, global_steps, operation, result):
                raise ValueError("observer crashed")

        with pytest.raises(ValueError, match="observer crashed") as excinfo:
            self.run_with_hook(Exploding())
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "Exploding.after_step" in notes
        assert "pid=0" in notes

    def test_on_finish_failure_is_annotated(self):
        from repro.runtime.hooks import StepHook

        class Exploding(StepHook):
            def on_finish(self, pid, output):
                raise RuntimeError("finish hook died")

        with pytest.raises(RuntimeError, match="finish hook died") as excinfo:
            self.run_with_hook(Exploding())
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "Exploding.on_finish" in notes

    def test_intercept_failure_is_annotated(self):
        from repro.runtime.hooks import StepHook

        class Exploding(StepHook):
            def intercept(self, pid, operation):
                raise RuntimeError("intercept died")

        with pytest.raises(RuntimeError, match="intercept died") as excinfo:
            self.run_with_hook(Exploding())
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "Exploding.intercept" in notes
        assert "pid=0" in notes

    def test_well_behaved_hooks_gain_no_notes(self):
        from repro.runtime.monitors import ValidityMonitor

        monitor = ValidityMonitor([0, 1], strict=False)
        result = self.run_with_hook(monitor)
        assert result.completed
        assert monitor.violations == []
