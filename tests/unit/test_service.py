"""Unit tests for the consensus service: sessions, admission, deadlines.

Everything runs on the virtual-time loop, so tests that span many
"seconds" of queueing, backoff, and timeouts finish instantly and
deterministically.
"""

import asyncio
import json
import socket

import pytest

from repro.errors import ConfigurationError
from repro.runtime.vectorized import numpy_available
from repro.service import (
    ConsensusService,
    ServiceConfig,
    SessionRequest,
    SessionResponse,
    VirtualTimeEventLoop,
    run_virtual,
)
from repro.service.faults import (
    ResponseDelayFault,
    ServiceFaultPlan,
    ShardBlackoutFault,
    WorkerKillFault,
)
from repro.service.session import (
    FAILED_CLIENT_DROP,
    FAILED_DEADLINE,
    FAILED_WORKER,
    REJECTED_BREAKER_OPEN,
    REJECTED_DEADLINE,
    REJECTED_QUEUE_FULL,
)


def submit_all(service, requests, **kwargs):
    """Run a batch of sessions concurrently on a virtual-time loop."""

    async def main():
        return await asyncio.gather(*(
            service.submit(request, **kwargs) for request in requests
        ))

    return run_virtual(main())


def request(i, **overrides):
    defaults = dict(
        session_id=i, algorithm="sifting", n=4,
        schedule_family="round-robin", deadline=5.0, seed=0,
    )
    defaults.update(overrides)
    return SessionRequest(**defaults)


class TestVirtualTimeLoop:
    def test_registering_a_reader_raises(self):
        loop = VirtualTimeEventLoop()
        left, right = socket.socketpair()
        try:
            with pytest.raises(RuntimeError, match="does no I/O"):
                loop.add_reader(left.fileno(), lambda: None)
            with pytest.raises(RuntimeError, match="does no I/O"):
                loop.add_writer(right.fileno(), lambda: None)
        finally:
            left.close()
            right.close()
            loop.close()

    def test_waiting_on_nothing_raises_instead_of_hanging(self):
        async def main():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeError, match="idle with no timer"):
            run_virtual(main())


class TestVocabulary:
    def test_request_round_trips_through_json(self):
        original = request(3, deadline=2.5)
        assert SessionRequest.from_json(original.to_json()) == original

    def test_response_round_trips_through_json(self):
        original = SessionResponse(
            session_id=3, status="rejected", code="queue-full", shard=1,
        )
        assert SessionResponse.from_json(original.to_json()) == original

    def test_status_and_code_must_agree(self):
        with pytest.raises(ConfigurationError):
            SessionResponse(session_id=0, status="completed",
                            code="queue-full")
        with pytest.raises(ConfigurationError):
            SessionResponse(session_id=0, status="rejected",
                            code="deadline-in-flight")
        with pytest.raises(ConfigurationError):
            SessionResponse(session_id=0, status="failed",
                            code="queue-full")

    @pytest.mark.parametrize(
        "deadline", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_deadline_must_be_finite_and_positive(self, deadline):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            request(0, deadline=deadline)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_from_json_refuses_non_finite_deadline_literals(self, literal):
        data = json.loads(
            f'{{"version": 1, "session_id": 1, "deadline": {literal}}}'
        )
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            SessionRequest.from_json(data)

    def test_foreign_versions_are_rejected(self):
        data = request(0).to_json()
        data["version"] = 9
        with pytest.raises(ConfigurationError):
            SessionRequest.from_json(data)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"workers_per_shard": 0},
        {"queue_capacity": 0},
        {"worker_steps_per_sec": 0},
        {"vectorized_speedup": 0.5},
        {"attempt_timeout": 0},
        {"max_attempts": 0},
        {"degrade_watermark": 1.5},
        {"degrade_recover": 0.9},  # >= watermark
    ])
    def test_bad_config_is_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)


class TestAdmission:
    def test_unknown_algorithm_is_refused_before_admission(self):
        service = ConsensusService(ServiceConfig(seed=0))
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            submit_all(service, [request(0, algorithm="nope")])
        counters = service.metrics.to_json()["counters"]
        assert counters.get("service.admitted", 0) == 0
        assert counters.get("service.attempts", 0) == 0
        assert service.total_occupancy == 0
        # The service is untouched: the next session is served as usual.
        assert submit_all(service, [request(1)])[0].status == "completed"


class TestHappyPath:
    def test_sessions_complete_with_results(self):
        service = ConsensusService(ServiceConfig(seed=0))
        responses = submit_all(service, [request(i) for i in range(8)])
        assert all(r.ok for r in responses)
        for response in responses:
            assert response.backend == "generator"
            assert response.attempts == 1
            assert response.latency > 0
            assert response.result["agreement"] in (True, False)
            assert not response.degraded

    def test_sharding_routes_by_session_id(self):
        service = ConsensusService(ServiceConfig(shards=3))
        responses = submit_all(service, [request(i) for i in range(6)])
        assert [r.shard for r in responses] == [0, 1, 2, 0, 1, 2]

    def test_same_request_same_result(self):
        """The simulated round is a pure function of the request."""
        first = submit_all(ConsensusService(), [request(5)])[0]
        second = submit_all(ConsensusService(), [request(5)])[0]
        assert first.result == second.result


class TestAdmissionControl:
    def test_queue_full_rejects_with_the_right_code(self):
        config = ServiceConfig(
            shards=1, workers_per_shard=1, queue_capacity=2,
        )
        service = ConsensusService(config)
        responses = submit_all(service, [request(i) for i in range(6)])
        rejected = [r for r in responses if r.status == "rejected"]
        assert rejected and all(
            r.code == REJECTED_QUEUE_FULL for r in rejected
        )
        # Rejections spend no attempts and report zero latency.
        assert all(r.attempts == 0 and r.latency == 0.0 for r in rejected)
        completed = [r for r in responses if r.ok]
        assert len(completed) == len(responses) - len(rejected) >= 2

    def test_impossible_deadline_is_rejected_before_admission(self):
        config = ServiceConfig(dispatch_overhead=0.01)
        service = ConsensusService(config)
        response = submit_all(service, [request(0, deadline=0.005)])[0]
        assert response.status == "rejected"
        assert response.code == REJECTED_DEADLINE
        assert response.attempts == 0

    def test_breaker_open_rejects_with_the_right_code(self):
        config = ServiceConfig(shards=1)
        service = ConsensusService(config)
        breaker = service.breaker(0)
        for t in range(breaker.config.failure_threshold):
            breaker.record_failure(float(t) * 0.001)
        response = submit_all(service, [request(0)])[0]
        assert response.status == "rejected"
        assert response.code == REJECTED_BREAKER_OPEN


class TestRetriesAndFailures:
    def test_transient_kills_are_retried_to_success(self):
        chaos = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=0.0, count=1),),
        )
        service = ConsensusService(
            ServiceConfig(shards=1, max_attempts=3), chaos=chaos,
        )
        response = submit_all(service, [request(0)])[0]
        assert response.ok
        assert response.attempts == 2  # one kill, one success

    def test_attempts_exhausted_is_worker_failure(self):
        chaos = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=0.0, count=10),),
        )
        service = ConsensusService(
            ServiceConfig(shards=1, max_attempts=3), chaos=chaos,
        )
        response = submit_all(service, [request(0)])[0]
        assert response.status == "failed"
        assert response.code == FAILED_WORKER
        assert response.attempts == 3

    def test_blackout_longer_than_budget_times_out_in_flight(self):
        chaos = ServiceFaultPlan(
            blackouts=(ShardBlackoutFault(shard=0, start=0.0,
                                          duration=100.0),),
        )
        # max_attempts high enough that the deadline, not the attempt
        # budget, is what gives out.
        service = ConsensusService(
            ServiceConfig(shards=1, max_attempts=1000,
                          backoff=ServiceConfig().backoff), chaos=chaos,
        )
        response = submit_all(service, [request(0, deadline=0.5)])[0]
        assert response.status == "failed"
        assert response.code == FAILED_DEADLINE
        assert response.latency <= 0.5 + 1e-9

    def test_slow_worker_attempt_is_cut_at_the_timeout(self):
        """A response delay pushing service time past attempt_timeout
        fails the attempt rather than blocking the worker forever."""
        chaos = ServiceFaultPlan(
            response_delays=(ResponseDelayFault(
                shard=0, start=0.0, duration=100.0, delay=10.0,
            ),),
        )
        service = ConsensusService(
            ServiceConfig(shards=1, max_attempts=2, attempt_timeout=0.5),
            chaos=chaos,
        )
        response = submit_all(service, [request(0, deadline=3.0)])[0]
        assert response.status == "failed"
        assert response.code == FAILED_WORKER
        # Two attempts, each cut at 0.5s, plus jittered backoff < 0.5s.
        assert response.latency < 2.0

    def test_client_drop_converts_a_late_completion(self):
        service = ConsensusService(ServiceConfig(shards=1))
        response = submit_all(
            service, [request(0)], drop_at=0.0,  # hung up immediately
        )[0]
        assert response.status == "failed"
        assert response.code == FAILED_CLIENT_DROP
        # Capacity was spent: the attempt ran to completion.
        assert response.attempts == 1


class TestBreakerHygiene:
    def test_probe_dying_on_deadline_does_not_wedge_the_breaker(self):
        """Regression: a session admitted as the only half-open probe
        that dies on its deadline before any attempt (stalled client)
        must release the probe slot; leaking it would leave allow()
        refusing every future session on the shard forever."""
        from repro.service.breaker import BreakerConfig

        config = ServiceConfig(
            shards=1, breaker=BreakerConfig(half_open_probes=1),
        )
        service = ConsensusService(config)

        async def main():
            loop = asyncio.get_running_loop()
            breaker = service.breaker(0)
            for _ in range(breaker.config.failure_threshold):
                breaker.record_failure(loop.time())
            assert breaker.state == "open"
            await asyncio.sleep(breaker.config.cooldown + 0.01)
            # The probe: stalls through its whole budget, dies with no
            # worker attempt and therefore no breaker outcome.
            dead = await service.submit(
                request(0, deadline=0.5), client_stall=1.0,
            )
            # The shard must still be probe-able afterwards.
            recovered = await service.submit(request(0, deadline=5.0))
            return dead, recovered

        dead, recovered = run_virtual(main())
        assert dead.status == "failed"
        assert dead.code == FAILED_DEADLINE
        assert dead.attempts == 0
        assert recovered.ok
        breaker = service.breaker(0)
        assert breaker.state == "closed"
        assert breaker.to_json()["closed_again"] == 1

    def test_budget_clipped_timeouts_do_not_trip_the_breaker(self):
        """A burst of short-deadline clients abandoning attempts at a
        budget-clipped timeout says nothing about shard health: the
        breaker must stay closed, and the sessions fail as deadline
        misses, not worker failures."""
        chaos = ServiceFaultPlan(
            response_delays=(ResponseDelayFault(
                shard=0, start=0.0, duration=100.0, delay=1.0,
            ),),
        )
        service = ConsensusService(
            ServiceConfig(shards=1, max_attempts=2, attempt_timeout=2.0),
            chaos=chaos,
        )
        # More clipped abandonments than the failure threshold.
        count = service.breaker(0).config.failure_threshold + 2
        responses = submit_all(
            service, [request(i, deadline=0.5) for i in range(count)],
        )
        assert all(r.code == FAILED_DEADLINE for r in responses)
        breaker = service.breaker(0)
        assert breaker.state == "closed"
        assert breaker.to_json()["opened"] == 0


class TestDeadlinePropagation:
    def collect_calls(self, deadline, client_stall=0.0, chaos=None):
        config = ServiceConfig(
            shards=1, max_attempts=4, attempt_timeout=0.5,
        )
        service = ConsensusService(config, chaos=chaos)
        submit_all(
            service, [request(0, deadline=deadline)],
            client_stall=client_stall,
        )
        return service.calls

    def test_worker_timeout_never_exceeds_remaining_budget(self):
        """THE invariant: every worker call's timeout is bounded by the
        session's remaining deadline budget at dispatch time."""
        chaos = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=0.0, count=3),),
        )
        for deadline in (0.05, 0.2, 1.0, 5.0):
            calls = self.collect_calls(deadline, chaos=chaos)
            assert calls, "expected at least one worker call"
            for call in calls:
                assert call["timeout"] <= call["remaining"] + 1e-12
                assert call["remaining"] <= deadline + 1e-12

    def test_tight_budgets_shrink_the_timeout_below_the_ceiling(self):
        calls = self.collect_calls(deadline=0.3)
        assert calls[0]["timeout"] == pytest.approx(0.3, abs=1e-9)
        assert calls[0]["timeout"] < 0.5  # attempt_timeout ceiling unused

    def test_client_stall_burns_budget_before_the_first_attempt(self):
        stalled = self.collect_calls(deadline=2.0, client_stall=1.5)
        fresh = self.collect_calls(deadline=2.0)
        assert stalled[0]["remaining"] == pytest.approx(0.5, abs=1e-9)
        assert fresh[0]["remaining"] == pytest.approx(2.0, abs=1e-9)

    def test_retry_attempts_see_monotonically_shrinking_budgets(self):
        chaos = ServiceFaultPlan(
            worker_kills=(WorkerKillFault(shard=0, at=0.0, count=3),),
        )
        calls = self.collect_calls(deadline=5.0, chaos=chaos)
        assert [call["attempt"] for call in calls] == [0, 1, 2, 3]
        budgets = [call["remaining"] for call in calls]
        assert budgets == sorted(budgets, reverse=True)
        assert budgets[0] > budgets[-1]

    def test_admission_rejections_never_reach_a_worker(self):
        """Rejected-on-admission and timed-out-in-flight are distinct:
        the former produces zero worker calls and a rejection code, the
        latter spends attempts and reports a failure code."""
        config = ServiceConfig(shards=1, dispatch_overhead=0.01)
        service = ConsensusService(config)
        preadmission = submit_all(
            service, [request(0, deadline=0.005)]
        )[0]
        assert preadmission.code == REJECTED_DEADLINE
        assert preadmission.status == "rejected"
        assert service.calls == []

        chaos = ServiceFaultPlan(
            blackouts=(ShardBlackoutFault(shard=0, start=0.0,
                                          duration=100.0),),
        )
        slow = ConsensusService(
            ServiceConfig(shards=1, max_attempts=1000),
            chaos=chaos,
        )
        in_flight = submit_all(slow, [request(0, deadline=0.3)])[0]
        assert in_flight.code == FAILED_DEADLINE
        assert in_flight.status == "failed"
        assert slow.calls != []


class TestDegradation:
    def test_sustained_overload_degrades_then_recovers(self):
        config = ServiceConfig(
            shards=1, workers_per_shard=1, queue_capacity=8,
            worker_steps_per_sec=500.0,   # slow workers: overload builds
            attempt_timeout=10.0,
            degrade_watermark=0.5, degrade_after=0.05, degrade_recover=0.25,
        )
        service = ConsensusService(config)
        responses = submit_all(
            service,
            [request(i, schedule_family="permuted", deadline=60.0)
             for i in range(8)],
        )
        degraded = [r for r in responses if r.ok and r.degraded]
        if numpy_available():
            assert degraded, "sustained overload should trigger degradation"
            assert all(r.backend == "vectorized" for r in degraded)
        else:
            # Nothing is eligible for the vectorized backend without NumPy:
            # degraded mode is entered, every session stays on the generator.
            assert not degraded
            assert all(r.backend == "generator" for r in responses if r.ok)
        assert service.degraded_entries >= 1
        assert not service.degraded  # drained and recovered

    def test_ineligible_algorithms_stay_on_the_generator(self):
        config = ServiceConfig(
            shards=1, workers_per_shard=1, queue_capacity=8,
            worker_steps_per_sec=500.0,
            attempt_timeout=10.0,
            degrade_watermark=0.5, degrade_after=0.05, degrade_recover=0.25,
        )
        service = ConsensusService(config)
        responses = submit_all(
            service,
            [request(i, algorithm="cil-embedded",
                     schedule_family="permuted", deadline=60.0)
             for i in range(8)],
        )
        assert all(r.ok for r in responses)
        assert all(not r.degraded for r in responses)
        assert all(r.backend == "generator" for r in responses)


class TestMetrics:
    def test_terminal_states_are_counted_once(self):
        config = ServiceConfig(
            shards=1, workers_per_shard=1, queue_capacity=2,
        )
        service = ConsensusService(config)
        responses = submit_all(service, [request(i) for i in range(6)])
        completed = sum(1 for r in responses if r.ok)
        rejected = sum(1 for r in responses if r.status == "rejected")
        assert service.metrics.counter_value(
            "service.completed", backend="generator"
        ) == completed
        assert service.metrics.counter_value(
            "service.rejected", reason=REJECTED_QUEUE_FULL
        ) == rejected
        histogram = service.metrics.histogram_for("service.latency")
        assert histogram is not None and histogram.count == completed
