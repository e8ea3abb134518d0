"""Unit tests for the doubling CIL baseline and the naive conciliator."""

import helpers
from repro.baselines.doubling_cil import DoublingCILConciliator
from repro.baselines.naive_conciliator import NaiveConciliator
from repro.runtime.scheduler import ExplicitSchedule, RoundRobinSchedule


class TestDoublingCIL:
    def test_step_bound_is_logarithmic(self):
        import math

        for n in (2, 16, 1024):
            conciliator = DoublingCILConciliator(n)
            assert conciliator.step_bound() == 2 * (math.ceil(math.log2(2 * n)) + 1)

    def test_never_exceeds_step_bound(self):
        n = 16
        for seed in range(10):
            conciliator = DoublingCILConciliator(n)
            result = helpers.run_conciliator_once(
                conciliator, list(range(n)), seed=seed
            )
            assert result.max_individual_steps <= conciliator.step_bound()

    def test_terminates_valid_all_seeds(self):
        n = 8
        for seed in range(10):
            conciliator = DoublingCILConciliator(n)
            result = helpers.run_conciliator_once(
                conciliator, list(range(n)), seed=seed
            )
            assert result.completed
            assert result.validity_holds({pid: pid for pid in range(n)})

    def test_constant_agreement_probability(self):
        n = 16
        rate = helpers.agreement_rate(
            lambda: DoublingCILConciliator(n), list(range(n)), trials=60, seed=6
        )
        assert rate > 0.3

    def test_solo_process(self):
        conciliator = DoublingCILConciliator(1)
        result = helpers.run_conciliator_once(conciliator, ["x"], seed=7)
        assert result.outputs[0] == "x"


class TestNaiveConciliator:
    def test_two_steps_always(self):
        n = 8
        conciliator = NaiveConciliator(n)
        result = helpers.run_conciliator_once(conciliator, list(range(n)), seed=1)
        assert all(steps == 2 for steps in result.steps_by_pid.values())

    def test_round_robin_agrees_on_last_writer(self):
        n = 4
        conciliator = NaiveConciliator(n)
        result = helpers.run_conciliator_once(
            conciliator, list(range(n)), schedule=RoundRobinSchedule(n), seed=2
        )
        assert result.decided_values == {n - 1}

    def test_adversary_forces_total_disagreement(self):
        # write-all? No: each process writes then reads. Schedule each
        # process's two steps consecutively and each sees itself... only the
        # last writer is seen by later processes, so run processes in
        # *reverse* solo order: every process sees its own write.
        n = 4
        conciliator = NaiveConciliator(n)
        slots = []
        for pid in range(n):
            slots.extend([pid, pid])
        result = helpers.run_conciliator_once(
            conciliator, list(range(n)), schedule=ExplicitSchedule(slots, n=n),
            seed=3,
        )
        # Solo runs: every process reads back its own value — no agreement.
        assert len(result.decided_values) == n

    def test_validity(self):
        conciliator = NaiveConciliator(3)
        result = helpers.run_conciliator_once(conciliator, ["a", "b", "c"], seed=4)
        assert result.validity_holds({0: "a", 1: "b", 2: "c"})
