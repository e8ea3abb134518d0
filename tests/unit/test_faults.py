"""Unit tests for declarative fault injection (repro.runtime.faults)."""

import pytest

from repro.errors import ConfigurationError, ScheduleExhaustedError
from repro.memory.register import AtomicRegister
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    RegisterFault,
    StallFault,
)
from repro.runtime.hooks import CRASH, SKIP
from repro.runtime.operations import Read, Write
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import RoundRobinSchedule
from repro.runtime.simulator import run_programs


def write_then_read(register):
    def program(ctx):
        yield Write(register, ctx.pid)
        value = yield Read(register)
        return value

    return program


class TestFaultValidation:
    def test_crash_fault_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            CrashFault(pid=-1)
        with pytest.raises(ConfigurationError):
            CrashFault(pid=0, after_steps=-1)

    def test_stall_fault_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            StallFault(pid=-1, start_step=0, duration=1)
        with pytest.raises(ConfigurationError):
            StallFault(pid=0, start_step=-1, duration=1)
        with pytest.raises(ConfigurationError):
            StallFault(pid=0, start_step=0, duration=0)

    def test_register_fault_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="kind"):
            RegisterFault(kind="flip-bits", obj_name="r")
        with pytest.raises(ConfigurationError):
            RegisterFault(kind="lossy-write", obj_name="")
        with pytest.raises(ConfigurationError):
            RegisterFault(kind="lossy-write", obj_name="r", op_index=-1)
        with pytest.raises(ConfigurationError):
            RegisterFault(kind="lossy-write", obj_name="r", count=0)


class TestFaultPlan:
    def test_register_faults_require_explicit_opt_in(self):
        fault = RegisterFault(kind="lossy-write", obj_name="r")
        with pytest.raises(ConfigurationError, match="allow_out_of_model"):
            FaultPlan(register_faults=(fault,))
        plan = FaultPlan(register_faults=(fault,), allow_out_of_model=True)
        assert not plan.is_in_model

    def test_duplicate_crash_pids_rejected(self):
        with pytest.raises(ConfigurationError, match="more than one crash"):
            FaultPlan(crashes=(CrashFault(0), CrashFault(0, after_steps=3)))

    def test_in_model_plans_report_crashed_pids(self):
        plan = FaultPlan(
            crashes=(CrashFault(2), CrashFault(0, after_steps=1)),
            stalls=(StallFault(1, start_step=0, duration=4),),
        )
        assert plan.is_in_model
        assert plan.crashed_pids == (0, 2)

    def test_injector_is_fresh_per_call(self):
        plan = FaultPlan(crashes=(CrashFault(0),))
        assert plan.injector() is not plan.injector()

    def test_sequences_coerced_to_tuples(self):
        plan = FaultPlan(crashes=[CrashFault(0)], stalls=[])
        assert plan.crashes == (CrashFault(0),)


class TestCrashInjection:
    def test_crash_after_exact_step_budget(self):
        register = AtomicRegister("r")
        plan = FaultPlan(crashes=(CrashFault(pid=0, after_steps=1),))
        result = run_programs(
            [write_then_read(register)] * 2,
            RoundRobinSchedule(2),
            SeedTree(0),
            hooks=[plan.injector()],
            allow_partial=True,
        )
        assert result.crashed == frozenset({0})
        assert result.steps_by_pid[0] == 1  # the write landed, the read did not
        assert 0 not in result.outputs
        assert result.outputs[1] == 1
        assert result.survivors == frozenset({1})
        assert result.survivors_completed
        assert not result.completed

    def test_crash_before_any_step(self):
        register = AtomicRegister("r")
        plan = FaultPlan(crashes=(CrashFault(pid=1, after_steps=0),))
        result = run_programs(
            [write_then_read(register)] * 2,
            RoundRobinSchedule(2),
            SeedTree(0),
            hooks=[plan.injector()],
            allow_partial=True,
        )
        assert result.crashed == frozenset({1})
        assert result.steps_by_pid[1] == 0
        # Survivor never sees pid 1's write.
        assert result.outputs[0] == 0

    def test_crashing_everyone_ends_the_run(self):
        register = AtomicRegister("r")
        plan = FaultPlan(crashes=(CrashFault(0), CrashFault(1)))
        result = run_programs(
            [write_then_read(register)] * 2,
            RoundRobinSchedule(2),
            SeedTree(0),
            hooks=[plan.injector()],
            allow_partial=True,
        )
        assert result.crashed == frozenset({0, 1})
        assert result.outputs == {}
        assert result.survivors_completed  # vacuously: no survivors


class TestStallInjection:
    def test_stalled_process_takes_no_steps_in_window(self):
        register = AtomicRegister("r")
        # Stall pid 0 for the whole time pid 1 is running: pid 1 finishes
        # first, then pid 0 runs and observes pid 1's write.
        plan = FaultPlan(stalls=(StallFault(pid=0, start_step=0, duration=2),))
        result = run_programs(
            [write_then_read(register)] * 2,
            RoundRobinSchedule(2),
            SeedTree(0),
            hooks=[plan.injector()],
        )
        assert result.completed
        # Without the stall, round-robin gives outputs {0: 1, 1: 1} with
        # pid 0 writing first.  With pid 0 stalled until 2 global steps have
        # been charged, pid 1 writes and reads itself before pid 0 writes.
        assert result.outputs[1] == 1
        assert result.outputs[0] == 0

    def test_stall_windows_are_finite(self):
        register = AtomicRegister("r")
        # The window is measured in *global* charged steps, so it must be
        # coverable by the other processes' work (pids 1 and 2 contribute
        # four steps); once it closes, pid 0 runs to completion.
        plan = FaultPlan(stalls=(StallFault(pid=0, start_step=0, duration=4),))
        result = run_programs(
            [write_then_read(register)] * 3,
            RoundRobinSchedule(3),
            SeedTree(0),
            hooks=[plan.injector()],
        )
        assert result.completed
        assert result.steps_by_pid[0] == 2

    def test_unsatisfiable_stall_window_trips_the_skip_guard(self):
        register = AtomicRegister("r")
        # Nobody else can advance the global step count far enough to close
        # the window, so the stalled process is starved forever; the skip
        # guard must fail fast instead of spinning.
        plan = FaultPlan(stalls=(StallFault(pid=0, start_step=0, duration=50),))
        with pytest.raises(ScheduleExhaustedError, match="starved"):
            run_programs(
                [write_then_read(register)] * 2,
                RoundRobinSchedule(2),
                SeedTree(0),
                hooks=[plan.injector()],
                skip_guard=500,
            )


class TestRegisterFaultInjection:
    def test_lossy_write_never_reaches_the_register(self):
        register = AtomicRegister("r", initial="untouched")
        plan = FaultPlan(
            register_faults=(RegisterFault(kind="lossy-write", obj_name="r"),),
            allow_out_of_model=True,
        )
        injector = plan.injector()

        def writer(ctx):
            yield Write(register, "lost")
            value = yield Read(register)
            return value

        result = run_programs(
            [writer], RoundRobinSchedule(1), SeedTree(0), hooks=[injector]
        )
        # The write was dropped on the floor; the read sees the initial value.
        assert result.outputs[0] == "untouched"
        assert len(injector.injected) == 1
        fault, pid, _step = injector.injected[0]
        assert fault.kind == "lossy-write"
        assert pid == 0

    def test_stale_read_serves_the_previous_value(self):
        register = AtomicRegister("r")
        plan = FaultPlan(
            register_faults=(RegisterFault(kind="stale-read", obj_name="r"),),
            allow_out_of_model=True,
        )
        injector = plan.injector()

        def program(ctx):
            yield Write(register, "old")
            yield Write(register, "new")
            value = yield Read(register)
            return value

        result = run_programs(
            [program], RoundRobinSchedule(1), SeedTree(0), hooks=[injector]
        )
        assert result.outputs[0] == "old"
        assert register.value == "new"  # the register itself is fine

    def test_op_index_selects_which_operation_misbehaves(self):
        register = AtomicRegister("r")
        plan = FaultPlan(
            register_faults=(
                RegisterFault(kind="lossy-write", obj_name="r", op_index=1),
            ),
            allow_out_of_model=True,
        )

        def program(ctx):
            yield Write(register, "first")
            yield Write(register, "second")  # this one is dropped
            value = yield Read(register)
            return value

        result = run_programs(
            [program], RoundRobinSchedule(1), SeedTree(0),
            hooks=[plan.injector()],
        )
        assert result.outputs[0] == "first"

    def test_obj_name_is_a_substring_filter(self):
        target = AtomicRegister("target-cell")
        bystander = AtomicRegister("bystander")
        plan = FaultPlan(
            register_faults=(
                RegisterFault(kind="lossy-write", obj_name="target"),
            ),
            allow_out_of_model=True,
        )

        def program(ctx):
            yield Write(target, "dropped")
            yield Write(bystander, "kept")
            first = yield Read(target)
            second = yield Read(bystander)
            return (first, second)

        result = run_programs(
            [program], RoundRobinSchedule(1), SeedTree(0),
            hooks=[plan.injector()],
        )
        assert result.outputs[0] == (None, "kept")


class TestDeterminism:
    def test_faulted_runs_are_reproducible(self):
        def build():
            register = AtomicRegister("r")
            plan = FaultPlan(
                crashes=(CrashFault(pid=1, after_steps=1),),
                stalls=(StallFault(pid=2, start_step=1, duration=2),),
            )
            return run_programs(
                [write_then_read(register)] * 3,
                RoundRobinSchedule(3),
                SeedTree(9),
                hooks=[plan.injector()],
                allow_partial=True,
            )

        first, second = build(), build()
        assert first.outputs == second.outputs
        assert first.crashed == second.crashed
        assert first.steps_by_pid == second.steps_by_pid


class TestSlotDecisionConstants:
    def test_constants_are_distinct_strings(self):
        assert CRASH != SKIP
        assert isinstance(CRASH, str) and isinstance(SKIP, str)


class TestFaultPlanValueSemantics:
    def plan(self):
        return FaultPlan(
            crashes=(CrashFault(pid=1, after_steps=4),),
            stalls=(StallFault(pid=0, start_step=2, duration=6),),
            register_faults=(
                RegisterFault(kind="stale-read", obj_name="r", op_index=1,
                              count=2),
            ),
            allow_out_of_model=True,
        )

    def test_equality_and_hash(self):
        assert self.plan() == self.plan()
        assert hash(self.plan()) == hash(self.plan())
        assert self.plan() != FaultPlan()

    def test_is_empty(self):
        assert FaultPlan().is_empty
        assert not self.plan().is_empty

    def test_json_round_trip_preserves_equality(self):
        plan = self.plan()
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert hash(restored) == hash(plan)
        assert FaultPlan.from_json(FaultPlan().to_json()) == FaultPlan()

    def test_unknown_version_rejected(self):
        data = self.plan().to_json()
        data["version"] = 2
        with pytest.raises(ConfigurationError, match="version"):
            FaultPlan.from_json(data)

    def test_from_json_revalidates_the_out_of_model_gate(self):
        data = self.plan().to_json()
        data["allow_out_of_model"] = False
        with pytest.raises(ConfigurationError, match="allow_out_of_model"):
            FaultPlan.from_json(data)
