"""Unit tests for Algorithm 1 (snapshot conciliator)."""

import pytest

import helpers
from repro.analysis.experiments import run_conciliator_trials
from repro.core.persona import Persona
from repro.core.rounds import snapshot_priority_range, snapshot_rounds
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.errors import ConfigurationError
from repro.runtime.scheduler import (
    ExplicitSchedule,
    FrontRunnerSchedule,
    RoundRobinSchedule,
)
from repro.runtime.vectorized import BACKENDS, numpy_available


class TestConfiguration:
    def test_default_rounds_match_theorem(self):
        conciliator = SnapshotConciliator(16, epsilon=0.5)
        assert conciliator.rounds == snapshot_rounds(16, 0.5)

    def test_default_priority_range_matches_paper(self):
        conciliator = SnapshotConciliator(16, epsilon=0.5)
        assert conciliator.priority_range == snapshot_priority_range(
            16, 0.5, conciliator.rounds
        )

    def test_step_bound_is_two_per_round(self):
        conciliator = SnapshotConciliator(8)
        assert conciliator.step_bound() == 2 * conciliator.rounds

    def test_rounds_override(self):
        assert SnapshotConciliator(8, rounds=3).rounds == 3

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            SnapshotConciliator(8, rounds=0)

    @pytest.mark.parametrize("use_max_registers", [False, True])
    def test_rejects_empty_priority_range(self, use_max_registers):
        with pytest.raises(ConfigurationError, match="priority_range must be >= 1"):
            SnapshotConciliator(
                8, priority_range=0, use_max_registers=use_max_registers
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_refuses_an_empty_range_up_front(self, backend):
        # Without the constructor's check the vectorized kernel would
        # surface numpy's raw "low >= high" instead.
        if backend != "generator" and not numpy_available():
            pytest.skip("vectorized backends require numpy")
        with pytest.raises(ConfigurationError, match="priority_range must be >= 1"):
            run_conciliator_trials(
                lambda: SnapshotConciliator(8, priority_range=0),
                list(range(8)), schedule_family="permuted", trials=20,
                backend=backend,
            )


class TestExecution:
    def test_termination_validity_exact_steps(self):
        n = 8
        conciliator = SnapshotConciliator(n)
        inputs = [f"value-{pid}" for pid in range(n)]
        result = helpers.run_conciliator_once(conciliator, inputs, seed=1)
        assert result.completed
        assert result.validity_holds(dict(enumerate(inputs)))
        # Every process takes exactly 2R steps: 1 update + 1 scan per round.
        assert all(
            steps == conciliator.step_bound()
            for steps in result.steps_by_pid.values()
        )

    def test_single_process_returns_own_input(self):
        conciliator = SnapshotConciliator(1)
        result = helpers.run_conciliator_once(conciliator, ["only"], seed=2)
        assert result.outputs[0] == "only"

    def test_unanimous_inputs_return_that_value(self):
        conciliator = SnapshotConciliator(6)
        result = helpers.run_conciliator_once(conciliator, ["same"] * 6, seed=3)
        assert result.decided_values == {"same"}

    def test_sequential_schedule_agrees_deterministically(self):
        # Under a fully sequential schedule (each process runs all its steps
        # alone), the first round already collapses everyone onto the
        # highest-priority persona seen — and the last process sees all.
        n = 4
        conciliator = SnapshotConciliator(n)
        slots = []
        for pid in range(n):
            slots.extend([pid] * conciliator.step_bound())
        result = helpers.run_conciliator_once(
            conciliator,
            list(range(n)),
            schedule=ExplicitSchedule(slots, n=n),
            seed=4,
        )
        assert result.agreement

    def test_round_robin_many_seeds_always_valid(self):
        n = 5
        for seed in range(10):
            conciliator = SnapshotConciliator(n)
            result = helpers.run_conciliator_once(
                conciliator,
                list(range(n)),
                schedule=RoundRobinSchedule(n),
                seed=seed,
            )
            assert result.completed
            assert result.validity_holds({pid: pid for pid in range(n)})

    def test_front_runner_schedule_is_handled(self):
        n = 6
        conciliator = SnapshotConciliator(n)
        result = helpers.run_conciliator_once(
            conciliator,
            list(range(n)),
            schedule=FrontRunnerSchedule(n),
            seed=5,
        )
        assert result.completed

    def test_survivor_series_is_recorded_per_round(self):
        n = 8
        conciliator = SnapshotConciliator(n)
        helpers.run_conciliator_once(conciliator, list(range(n)), seed=6)
        series = conciliator.survivor_series()
        assert len(series) == conciliator.rounds
        assert all(1 <= count <= n for count in series)

    def test_survivors_never_increase(self):
        # Personae only get adopted, never created mid-run; under round-robin
        # the per-round survivor counts are non-increasing.
        n = 16
        conciliator = SnapshotConciliator(n)
        helpers.run_conciliator_once(
            conciliator, list(range(n)), schedule=RoundRobinSchedule(n), seed=7
        )
        series = conciliator.survivor_series()
        assert all(series[i] >= series[i + 1] for i in range(len(series) - 1))


class TestMaxRegisterVariant:
    def test_same_step_count(self):
        conciliator = SnapshotConciliator(8, use_max_registers=True)
        result = helpers.run_conciliator_once(
            conciliator, list(range(8)), seed=8
        )
        assert all(
            steps == conciliator.step_bound()
            for steps in result.steps_by_pid.values()
        )

    def test_validity_and_termination(self):
        conciliator = SnapshotConciliator(8, use_max_registers=True)
        result = helpers.run_conciliator_once(conciliator, list(range(8)), seed=9)
        assert result.completed
        assert result.validity_holds({pid: pid for pid in range(8)})

    def test_sequential_schedule_adopts_max_priority(self):
        # Process 0 runs entirely first and can only see itself; process 1
        # sees both writes and must adopt the globally max-priority persona.
        n = 2
        conciliator = SnapshotConciliator(n, use_max_registers=True, rounds=1)
        slots = [0] * 2 + [1] * 2
        result = helpers.run_conciliator_once(
            conciliator, ["a", "b"], schedule=ExplicitSchedule(slots, n=n), seed=10
        )
        assert result.outputs[0] == "a"
        top_persona = conciliator._max_registers[0].value[2]
        assert result.outputs[1] == top_persona.value


class TestDuplicatePriorities:
    def test_tiny_priority_range_still_terminates(self):
        # Forcing collisions (range=1) exercises the deterministic
        # origin-id tiebreak; the protocol must stay safe.
        n = 6
        conciliator = SnapshotConciliator(n, priority_range=1)
        result = helpers.run_conciliator_once(conciliator, list(range(n)), seed=11)
        assert result.completed
        assert result.validity_holds({pid: pid for pid in range(n)})

    def test_range_one_collapses_to_highest_origin_under_round_robin(self):
        n = 4
        conciliator = SnapshotConciliator(n, priority_range=1)
        result = helpers.run_conciliator_once(
            conciliator, list(range(n)), schedule=RoundRobinSchedule(n), seed=12
        )
        # All priorities equal; after a full synchronous round everyone sees
        # everyone and the origin tiebreak picks the max pid.
        assert result.decided_values == {n - 1}
