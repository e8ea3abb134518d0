"""Unit tests for the service-level fault vocabulary and chaos registry."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.fuzz.stacks import (
    SERVICE_CHAOS_STACKS,
    get_service_chaos,
    register_service_chaos,
    service_chaos_names,
    stack_names,
)
from repro.service.faults import (
    ResponseDelayFault,
    ServiceFaultPlan,
    ShardBlackoutFault,
    WorkerKillFault,
)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shard": -1},
        {"shard": 0, "at": -0.5},
        {"shard": 0, "count": 0},
        {"shard": 0, "at": math.nan},
        {"shard": math.nan},
        {"shard": 0, "count": math.nan},
    ])
    def test_worker_kill_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkerKillFault(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"shard": -1, "start": 0.0, "duration": 1.0, "delay": 0.1},
        {"shard": 0, "start": -1.0, "duration": 1.0, "delay": 0.1},
        {"shard": 0, "start": 0.0, "duration": 0.0, "delay": 0.1},
        {"shard": 0, "start": 0.0, "duration": 1.0, "delay": 0.0},
        {"shard": 0, "start": math.nan, "duration": 1.0, "delay": 0.1},
        {"shard": 0, "start": 0.0, "duration": math.nan, "delay": 0.1},
        {"shard": 0, "start": 0.0, "duration": 1.0, "delay": math.nan},
    ])
    def test_response_delay_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResponseDelayFault(**kwargs)

    def test_blackout_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            ShardBlackoutFault(shard=0, start=0.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            ShardBlackoutFault(shard=0, start=0.0, duration=math.nan)
        with pytest.raises(ConfigurationError):
            ServiceFaultPlan.from_json({
                "version": 1,
                "blackouts": [{"shard": 0, "start": "nan", "duration": 1.0}],
            })

    def test_empty_plan_properties(self):
        plan = ServiceFaultPlan()
        assert plan.is_empty
        assert plan.shards_touched == ()


class TestJsonRoundTrip:
    def test_round_trip_restores_the_plan_exactly(self):
        plan = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=1.5, count=2),),
            response_delays=(
                ResponseDelayFault(
                    shard=1, start=0.5, duration=2.0, delay=0.25
                ),
            ),
            blackouts=(ShardBlackoutFault(shard=2, start=3.0, duration=1.0),),
        )
        data = plan.to_json()
        assert data["version"] == 1
        assert ServiceFaultPlan.from_json(data) == plan
        assert plan.shards_touched == (0, 1, 2)

    def test_foreign_version_is_rejected(self):
        data = ServiceFaultPlan().to_json()
        data["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            ServiceFaultPlan.from_json(data)

    def test_non_object_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceFaultPlan.from_json([1, 2, 3])


class TestController:
    def test_blackout_window_fails_every_attempt(self):
        plan = ServiceFaultPlan(
            blackouts=(ShardBlackoutFault(shard=0, start=1.0, duration=2.0),),
        )
        controller = plan.controller()
        assert controller.attempt_failure(0, 0.5) is None
        assert controller.attempt_failure(0, 1.0) == "shard-blackout"
        assert controller.attempt_failure(0, 2.9) == "shard-blackout"
        assert controller.attempt_failure(0, 3.0) is None
        assert controller.attempt_failure(1, 1.5) is None  # other shard

    def test_worker_kills_are_consumed_one_attempt_at_a_time(self):
        plan = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=1, at=2.0, count=2),),
        )
        controller = plan.controller()
        assert controller.attempt_failure(1, 1.9) is None  # before `at`
        assert controller.attempt_failure(1, 2.0) == "worker-kill"
        assert controller.attempt_failure(1, 2.1) == "worker-kill"
        assert controller.attempt_failure(1, 2.2) is None  # budget spent

    def test_blackout_wins_over_worker_kill(self):
        plan = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=0.0, count=5),),
            blackouts=(ShardBlackoutFault(shard=0, start=0.0, duration=1.0),),
        )
        controller = plan.controller()
        assert controller.attempt_failure(0, 0.5) == "shard-blackout"
        # The kill budget was not consumed by the blacked-out attempt.
        assert controller._kills_left == [5]

    def test_response_delays_stack_when_windows_overlap(self):
        plan = ServiceFaultPlan(
            response_delays=(
                ResponseDelayFault(shard=0, start=0.0, duration=2.0,
                                   delay=0.1),
                ResponseDelayFault(shard=0, start=1.0, duration=2.0,
                                   delay=0.2),
            ),
        )
        controller = plan.controller()
        assert controller.extra_delay(0, 0.5) == pytest.approx(0.1)
        assert controller.extra_delay(0, 1.5) == pytest.approx(0.3)
        assert controller.extra_delay(0, 2.5) == pytest.approx(0.2)
        assert controller.extra_delay(1, 1.5) == 0.0

    def test_injected_audit_trail_records_delivered_faults(self):
        plan = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=0.0, count=1),),
        )
        controller = plan.controller()
        controller.attempt_failure(0, 0.25)
        assert controller.injected == [("worker-kill", 0, 0.25)]

    def test_controllers_are_independent_per_run(self):
        plan = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=0.0, count=1),),
        )
        first = plan.controller()
        assert first.attempt_failure(0, 0.0) == "worker-kill"
        # A fresh controller has a fresh kill budget.
        assert plan.controller().attempt_failure(0, 0.0) == "worker-kill"


class TestChaosRegistry:
    def test_stock_stacks_are_registered(self):
        assert "baseline" in service_chaos_names()
        assert "brownout" in service_chaos_names()
        assert not get_service_chaos("baseline").is_empty

    def test_unknown_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown service"):
            get_service_chaos("no-such-stack")

    def test_duplicate_registration_is_refused(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_service_chaos("baseline", ServiceFaultPlan())

    def test_service_stacks_do_not_leak_into_the_fuzz_draw(self):
        """The fuzzer's seeded stack draw indexes stack_names(); service
        chaos names must live in their own registry so the committed
        corpus does not shift."""
        fuzz_names = set(stack_names(include_planted=True))
        assert not fuzz_names & set(SERVICE_CHAOS_STACKS)
