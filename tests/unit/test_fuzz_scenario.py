"""Unit tests for fuzz scenarios: values, JSON, generation, execution."""

import pytest

from repro.errors import ConfigurationError
from repro.fuzz import (
    WORKLOADS,
    FuzzConfig,
    Scenario,
    ViolationRecord,
    generate_scenario,
    make_inputs,
    run_scenario,
    stack_names,
)
from repro.fuzz.stacks import get_stack
from repro.runtime.adaptive import AdaptiveSpec
from repro.runtime.faults import CrashFault, FaultPlan, RegisterFault, StallFault
from repro.workloads.schedules import ScheduleSpec


def oblivious(stack="sifting", n=3, workload="distinct", seed=7,
              family="round-robin", **kwargs):
    return Scenario(
        stack=stack, n=n, workload=workload, seed=seed,
        schedule=ScheduleSpec(family, n), **kwargs,
    )


class TestScenarioValidation:
    def test_needs_exactly_one_adversary(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            Scenario(stack="sifting", n=3, workload="distinct", seed=1)
        with pytest.raises(ConfigurationError, match="exactly one"):
            Scenario(
                stack="sifting", n=3, workload="distinct", seed=1,
                schedule=ScheduleSpec("random", 3),
                adaptive=AdaptiveSpec("pending-reads"),
            )

    def test_schedule_n_must_match(self):
        with pytest.raises(ConfigurationError, match="n="):
            Scenario(stack="sifting", n=4, workload="distinct", seed=1,
                     schedule=ScheduleSpec("random", 3))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="workload"):
            oblivious(workload="chaotic")

    def test_adaptive_scenarios_cannot_stall(self):
        with pytest.raises(ConfigurationError, match="stall"):
            Scenario(
                stack="sifting", n=3, workload="distinct", seed=1,
                adaptive=AdaptiveSpec("pending-reads"),
                faults=FaultPlan(
                    stalls=(StallFault(pid=0, start_step=0, duration=4),),
                ),
            )

    def test_fault_pids_must_exist(self):
        with pytest.raises(ConfigurationError, match="pid 5"):
            oblivious(faults=FaultPlan(crashes=(CrashFault(pid=5),)))

    def test_scenarios_are_values(self):
        assert oblivious() == oblivious()
        assert hash(oblivious()) == hash(oblivious())
        assert oblivious() != oblivious(seed=8)


class TestScenarioJson:
    def test_round_trip_oblivious(self):
        scenario = Scenario(
            stack="sifting", n=2, workload="binary", seed=11,
            schedule=ScheduleSpec("explicit", 2, slots=(0, 1, 0, 1)),
            faults=FaultPlan(
                crashes=(CrashFault(pid=1, after_steps=3),),
                stalls=(StallFault(pid=0, start_step=2, duration=5),),
            ),
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_round_trip_adaptive_and_out_of_model(self):
        scenario = Scenario(
            stack="snapshot", n=3, workload="distinct", seed=5,
            adaptive=AdaptiveSpec("sift-killer", seed=9),
            faults=FaultPlan(
                register_faults=(
                    RegisterFault(kind="stale-read", obj_name="proposal"),
                ),
                allow_out_of_model=True,
            ),
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert not restored.faults.is_in_model

    def test_unknown_version_rejected(self):
        data = oblivious().to_json()
        data["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            Scenario.from_json(data)

    def test_canonical_json_is_byte_stable(self):
        assert oblivious().canonical_json() == oblivious().canonical_json()


class TestFuzzConfig:
    def test_round_trip(self):
        config = FuzzConfig(stacks=("sifting",), min_n=2, max_n=4,
                            include_adaptive=False, allow_out_of_model=True)
        assert FuzzConfig.from_json(config.to_json()) == config

    def test_unknown_stack_rejected_on_resolve(self):
        with pytest.raises(ConfigurationError, match="unknown stack"):
            FuzzConfig(stacks=("no-such",)).resolved_stacks()

    def test_default_draw_excludes_planted_stacks(self):
        names = FuzzConfig().resolved_stacks()
        assert names == list(stack_names())
        assert not any(name.startswith("planted-") for name in names)

    def test_bad_n_range_rejected(self):
        with pytest.raises(ConfigurationError):
            FuzzConfig(min_n=0)
        with pytest.raises(ConfigurationError):
            FuzzConfig(min_n=4, max_n=2)


class TestGeneration:
    def test_pure_function_of_arguments(self):
        config = FuzzConfig()
        first = [generate_scenario(42, index, config) for index in range(30)]
        second = [generate_scenario(42, index, config) for index in range(30)]
        assert first == second

    def test_different_seeds_differ(self):
        config = FuzzConfig()
        a = [generate_scenario(1, index, config) for index in range(10)]
        b = [generate_scenario(2, index, config) for index in range(10)]
        assert a != b

    def test_respects_stack_restriction_and_n_range(self):
        config = FuzzConfig(stacks=("binary-ac",), min_n=2, max_n=3)
        for index in range(20):
            scenario = generate_scenario(7, index, config)
            assert scenario.stack == "binary-ac"
            assert 2 <= scenario.n <= 3
            assert scenario.workload in get_stack("binary-ac").workloads

    def test_out_of_model_faults_are_gated(self):
        closed = FuzzConfig(allow_out_of_model=False)
        assert not any(
            generate_scenario(3, index, closed).faults.register_faults
            for index in range(40)
        )
        open_ = FuzzConfig(allow_out_of_model=True)
        assert any(
            generate_scenario(3, index, open_).faults.register_faults
            for index in range(40)
        )

    def test_no_adaptive_when_disabled(self):
        config = FuzzConfig(include_adaptive=False)
        assert not any(
            generate_scenario(5, index, config).is_adaptive
            for index in range(40)
        )


    def test_stack_draw_follows_the_registry(self):
        """The sorted stack list is resolved once per registry state: a
        stack registered or removed between draws is seen at once."""
        from dataclasses import replace

        from repro.fuzz.stacks import STACKS, register_stack

        config = FuzzConfig()
        before = [generate_scenario(9, index, config) for index in range(40)]
        register_stack(replace(get_stack("sifting"), name="zz-extra"))
        try:
            drawn = {generate_scenario(9, index, config).stack
                     for index in range(200)}
            assert "zz-extra" in drawn
        finally:
            del STACKS["zz-extra"]
        after = [generate_scenario(9, index, config) for index in range(40)]
        assert after == before
        with pytest.raises(ConfigurationError, match="unknown stack"):
            generate_scenario(9, 0, FuzzConfig(stacks=("zz-extra",)))


class TestMakeInputs:
    def test_known_workloads(self):
        for workload in WORKLOADS:
            inputs = make_inputs(workload, 4, seed=3)
            assert len(inputs) == 4

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="workload"):
            make_inputs("nope", 4, seed=3)


class TestRunScenario:
    def test_honest_oblivious_run_is_ok(self):
        outcome = run_scenario(oblivious())
        assert outcome.status == "ok"
        assert outcome.violations == ()
        assert outcome.total_steps > 0

    def test_honest_adaptive_run_is_ok(self):
        outcome = run_scenario(Scenario(
            stack="sifting", n=3, workload="distinct", seed=7,
            adaptive=AdaptiveSpec("pending-reads", seed=2),
        ))
        assert outcome.status == "ok"

    def test_crash_faults_stay_in_model_and_ok(self):
        outcome = run_scenario(oblivious(
            faults=FaultPlan(crashes=(CrashFault(pid=2, after_steps=1),)),
        ))
        assert outcome.status == "ok"

    def test_out_of_model_damage_is_degraded_not_violation(self):
        # Lossy writes on sifting round registers wreck register semantics
        # (and can wreck agreement), but they must never fabricate a value
        # (validity) or hang a survivor (wait-freedom/termination).
        statuses = set()
        for seed in range(8):
            outcome = run_scenario(Scenario(
                stack="sifting", n=3, workload="distinct", seed=seed,
                schedule=ScheduleSpec("random", 3, seed=seed),
                faults=FaultPlan(
                    register_faults=(
                        RegisterFault(kind="lossy-write", obj_name=".r[",
                                      op_index=0, count=3),
                    ),
                    allow_out_of_model=True,
                ),
            ))
            statuses.add(outcome.status)
            assert outcome.status in ("ok", "degraded")
            assert not outcome.violations
        assert "degraded" in statuses  # damage was actually exercised

    def test_wall_clock_budget_reports_not_hangs(self):
        # The budget hook polls the clock every 256 charged steps, so the
        # scenario must be big enough to reach the first poll.
        big = Scenario(
            stack="register-consensus", n=16, workload="distinct", seed=1,
            schedule=ScheduleSpec("random", 16, seed=1),
        )
        assert run_scenario(big).total_steps > 256
        outcome = run_scenario(big, wall_clock_seconds=1e-9)
        assert outcome.status == "budget-exceeded"
        assert "budget" in outcome.note

    def test_stack_workload_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="workload"):
            run_scenario(oblivious(stack="binary-ac", workload="distinct"))

    def test_outcome_json_round_trips_records(self):
        record = ViolationRecord("validity", 1, "bad value")
        assert ViolationRecord.from_json(record.to_json()) == record
