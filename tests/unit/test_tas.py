"""Unit tests for the sifting test-and-set (Alistarh-Aspnes structure)."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import ExplicitSchedule, RandomSchedule
from repro.runtime.simulator import run_programs
from repro.tas.sifting_tas import LOSER, WINNER, SiftingTestAndSet
from repro.workloads.schedules import make_schedule


def run_tas(n, seed, schedule=None, tas=None):
    seeds = SeedTree(seed)
    tas = tas if tas is not None else SiftingTestAndSet(n)
    if schedule is None:
        schedule = RandomSchedule(n, seeds.child("schedule").seed)
    result = run_programs([tas.program] * n, schedule, seeds)
    return tas, result


class TestWinnerUniqueness:
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_exactly_one_winner(self, n):
        for seed in range(10):
            _, result = run_tas(n, seed)
            winners = [pid for pid, out in result.outputs.items()
                       if out == WINNER]
            assert len(winners) == 1, (n, seed)

    def test_solo_process_wins(self):
        _, result = run_tas(1, seed=5)
        assert result.outputs[0] == WINNER

    def test_outputs_are_binary(self):
        _, result = run_tas(8, seed=6)
        assert set(result.outputs.values()) <= {WINNER, LOSER}

    @pytest.mark.parametrize(
        "family", ["round-robin", "reversed", "blocks", "front-runner"]
    )
    def test_unique_winner_per_adversary_family(self, family):
        n = 8
        for seed in range(5):
            seeds = SeedTree(seed)
            tas = SiftingTestAndSet(n)
            schedule = make_schedule(family, n, seeds.child("schedule"))
            result = run_programs([tas.program] * n, schedule, seeds)
            winners = [pid for pid, out in result.outputs.items()
                       if out == WINNER]
            assert len(winners) == 1, (family, seed)


class TestFilterBehaviour:
    def test_losers_and_survivors_partition(self):
        tas, result = run_tas(16, seed=7)
        assert tas.filter_survivors + tas.filter_losers == 16
        assert tas.filter_survivors >= 1

    def test_filter_sifts_most_processes(self):
        # Across seeds, the mean survivor count must be far below n.
        n = 64
        survivor_counts = []
        for seed in range(20):
            tas, _ = run_tas(n, seed=100 + seed)
            survivor_counts.append(tas.filter_survivors)
        assert sum(survivor_counts) / len(survivor_counts) < n / 4

    def test_all_writers_schedule_everyone_survives(self):
        # p = 1 in every round: nobody ever reads, so nobody loses the
        # filter and the backup consensus decides among all n.
        n = 4
        tas = SiftingTestAndSet(n, rounds=3, p_schedule=[1.0] * 3)
        tas_obj, result = run_tas(n, seed=8, tas=tas)
        assert tas_obj.filter_survivors == n
        winners = [pid for pid, out in result.outputs.items() if out == WINNER]
        assert len(winners) == 1

    def test_sequential_schedule_later_readers_lose(self):
        # Round 1 with p favoring writes for pid 0 only is not directly
        # controllable (coins are private), so use p=1 then p=0: with
        # p_schedule [1.0, 0.0] everyone writes round 0; in round 1 all
        # read.  Sequential schedule: pid 0 reads r_1 empty and survives;
        # later pids read r_1... also empty (readers never write), so all
        # survive and the backup decides.
        n = 3
        tas = SiftingTestAndSet(n, rounds=2, p_schedule=[1.0, 0.0])
        tas_obj, result = run_tas(
            n, seed=9,
            schedule=ExplicitSchedule([0] * 40 + [1] * 40 + [2] * 40, n=n),
            tas=tas,
        )
        assert tas_obj.filter_survivors == n

    def test_loser_steps_bounded_by_filter(self):
        n = 32
        tas, result = run_tas(n, seed=10)
        losers = [pid for pid, out in result.outputs.items() if out == LOSER]
        filter_only = [
            pid for pid in losers
            if result.steps_by_pid[pid] <= tas.filter_step_bound()
        ]
        # Most losers exit inside the filter without touching the backup.
        assert len(filter_only) >= len(losers) // 2


class TestConfiguration:
    def test_rejects_zero_processes(self):
        with pytest.raises(ConfigurationError):
            SiftingTestAndSet(0)

    @pytest.mark.parametrize("bad", [1.5, -0.2, float("nan")])
    def test_rejects_write_probability_outside_unit_interval(self, bad):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
            SiftingTestAndSet(8, rounds=3, p_schedule=[0.5, bad, 0.5])

    def test_schedule_length_checked(self):
        with pytest.raises(ConfigurationError):
            SiftingTestAndSet(4, rounds=3, p_schedule=[0.5])

    def test_default_rounds_track_sifting_formula(self):
        from repro.core.rounds import sifting_rounds

        assert SiftingTestAndSet(64).rounds == sifting_rounds(64, 0.5)
