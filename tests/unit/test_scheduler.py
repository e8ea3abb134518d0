"""Unit tests for oblivious schedules."""

import itertools
import random

import pytest

from repro.errors import ConfigurationError
from repro.runtime.scheduler import (
    BlockSchedule,
    CrashSchedule,
    ExplicitSchedule,
    FrontRunnerSchedule,
    InterleavedLockstepSchedule,
    LimitedSchedule,
    PermutedRoundRobinSchedule,
    RandomSchedule,
    ReversedRoundRobinSchedule,
    RoundRobinSchedule,
)
from repro.runtime.rng import SeedTree
from repro.workloads.schedules import schedule_gallery


def shuffled_passes(seed, items, passes):
    """What the lockstep schedules must yield: ``passes`` successive
    ``Random(seed).shuffle`` results of ``items``, concatenated."""
    rng = random.Random(seed)
    items = list(items)
    slots = []
    for _ in range(passes):
        rng.shuffle(items)
        slots.extend(items)
    return slots


STREAM_SIZES = [1, 2, 3, 5, 8, 64]
STREAM_SEEDS = [0, 1, 7, 2012, 2**40 + 3]


class TestExplicitSchedule:
    def test_yields_given_slots(self):
        assert ExplicitSchedule([0, 1, 1, 0]).take(10) == [0, 1, 1, 0]

    def test_infers_n(self):
        assert ExplicitSchedule([0, 2, 1]).n == 3

    def test_rejects_out_of_range_pid(self):
        with pytest.raises(ConfigurationError):
            ExplicitSchedule([0, 5], n=2)

    def test_empty_schedule_allowed(self):
        assert ExplicitSchedule([]).take(3) == []


class TestRoundRobin:
    def test_cycles_in_order(self):
        assert RoundRobinSchedule(3).take(7) == [0, 1, 2, 0, 1, 2, 0]

    def test_finite_rounds(self):
        # Two full passes are the first 2n slots.
        slots = LimitedSchedule(RoundRobinSchedule(2), 2 * 2).take(100)
        assert slots == [0, 1, 0, 1]

    def test_reversed_order(self):
        assert ReversedRoundRobinSchedule(3).take(6) == [2, 1, 0, 2, 1, 0]

    def test_rejects_zero_processes(self):
        with pytest.raises(ConfigurationError):
            RoundRobinSchedule(0)


class TestRandomSchedule:
    def test_deterministic_per_seed(self):
        assert RandomSchedule(4, 9).take(50) == RandomSchedule(4, 9).take(50)

    def test_different_seeds_differ(self):
        assert RandomSchedule(4, 1).take(50) != RandomSchedule(4, 2).take(50)

    def test_pids_in_range(self):
        assert all(0 <= pid < 5 for pid in RandomSchedule(5, 3).take(200))

    def test_restartable(self):
        schedule = RandomSchedule(4, 9)
        assert schedule.take(20) == schedule.take(20)

    def test_covers_all_processes_eventually(self):
        assert set(RandomSchedule(6, 0).take(500)) == set(range(6))

    @pytest.mark.parametrize("seed", [0, 1, 7, 2012, 2**40 + 3])
    def test_draws_equal_randrange(self, seed):
        # The schedule inlines randrange's rejection loop; every seeded
        # artifact assumes the two streams stay equal, so a change in
        # CPython's randrange must fail here rather than drift silently.
        for n in range(1, 131):
            rng = random.Random(seed)
            expected = [rng.randrange(n) for _ in range(1000)]
            assert RandomSchedule(n, seed).take(1000) == expected, n


class TestBlockSchedule:
    def test_blocks_are_consecutive(self):
        slots = BlockSchedule(4, 3, seed=1).take(30)
        for start in range(0, 30, 3):
            block = slots[start : start + 3]
            assert len(set(block)) == 1

    def test_rejects_bad_block_size(self):
        with pytest.raises(ConfigurationError):
            BlockSchedule(4, 0, seed=1)


class TestFrontRunner:
    def test_leader_runs_first(self):
        slots = FrontRunnerSchedule(4).take(16 + 9)
        assert slots[:16] == [0] * 16
        assert slots[16:] == [0, 1, 2, 3, 0, 1, 2, 3, 0]

    def test_default_lead_is_4n(self):
        schedule = FrontRunnerSchedule(8)
        assert schedule.take(32) == [0] * 32


class TestCrashSchedule:
    def test_crashed_pid_disappears_after_budget(self):
        base = RoundRobinSchedule(3)
        slots = CrashSchedule(base, {1: 2}).take(10)
        assert slots.count(1) == 2
        # Remaining slots keep other pids alive.
        assert slots[:4] == [0, 1, 2, 0]

    def test_zero_budget_never_scheduled(self):
        slots = CrashSchedule(RoundRobinSchedule(2), {0: 0}).take(6)
        assert slots == [1] * 6

    def test_rejects_unknown_pid(self):
        with pytest.raises(ConfigurationError):
            CrashSchedule(RoundRobinSchedule(2), {5: 1})

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigurationError):
            CrashSchedule(RoundRobinSchedule(2), {0: -1})


class TestLimited:
    def test_limited_truncates(self):
        slots = LimitedSchedule(RoundRobinSchedule(3), 4).take(100)
        assert slots == [0, 1, 2, 0]

    def test_limited_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LimitedSchedule(RoundRobinSchedule(2), -1)


class TestGallery:
    def test_gallery_members_cover_n(self):
        gallery = schedule_gallery(4, SeedTree(0))
        for name, schedule in gallery.items():
            assert schedule.n == 4, name
            assert all(0 <= pid < 4 for pid in schedule.take(50)), name

    def test_gallery_includes_crash_only_for_n_above_one(self):
        assert "crash-half" not in schedule_gallery(1, SeedTree(0))
        assert "crash-half" in schedule_gallery(4, SeedTree(0))

    def test_schedules_are_oblivious_to_reiteration(self):
        # Iterating twice gives the same sequence: the schedule is a fixed
        # object, not a reactive one.
        for name, schedule in schedule_gallery(3, SeedTree(1)).items():
            assert schedule.take(40) == schedule.take(40), name


class TestExplicitScheduleValueSemantics:
    def test_equality_and_hash(self):
        assert ExplicitSchedule([0, 1, 0]) == ExplicitSchedule([0, 1, 0])
        assert hash(ExplicitSchedule([0, 1, 0])) == hash(
            ExplicitSchedule([0, 1, 0])
        )
        assert ExplicitSchedule([0, 1, 0]) != ExplicitSchedule([0, 1, 1])
        assert ExplicitSchedule([0, 1], n=2) != ExplicitSchedule([0, 1], n=3)
        assert ExplicitSchedule([0]) != "not a schedule"

    def test_json_round_trip(self):
        schedule = ExplicitSchedule([0, 2, 1, 1], n=4)
        restored = ExplicitSchedule.from_json(schedule.to_json())
        assert restored == schedule
        assert restored.n == 4

    def test_unknown_version_rejected(self):
        data = ExplicitSchedule([0, 1]).to_json()
        data["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            ExplicitSchedule.from_json(data)

    def test_wrong_kind_rejected(self):
        data = ExplicitSchedule([0, 1]).to_json()
        data["kind"] = "random"
        with pytest.raises(ConfigurationError, match="kind"):
            ExplicitSchedule.from_json(data)

    def test_from_json_revalidates_slots(self):
        data = ExplicitSchedule([0, 1]).to_json()
        data["slots"] = [0, 7]
        with pytest.raises(ConfigurationError):
            ExplicitSchedule.from_json(data)


class TestPermutedRoundRobin:
    def test_every_pass_is_a_permutation(self):
        n = 5
        slots = PermutedRoundRobinSchedule(n, seed=3).take(n * 20)
        for start in range(0, len(slots), n):
            assert sorted(slots[start : start + n]) == list(range(n))

    def test_passes_are_not_all_identical(self):
        n = 6
        slots = PermutedRoundRobinSchedule(n, seed=1).take(n * 30)
        passes = {tuple(slots[start : start + n]) for start in range(0, len(slots), n)}
        assert len(passes) > 1

    def test_deterministic_per_seed_and_restartable(self):
        schedule = PermutedRoundRobinSchedule(4, seed=9)
        assert schedule.take(40) == schedule.take(40)
        assert schedule.take(40) == PermutedRoundRobinSchedule(4, seed=9).take(40)
        assert schedule.take(40) != PermutedRoundRobinSchedule(4, seed=10).take(40)

    def test_rejects_zero_processes(self):
        with pytest.raises(ConfigurationError):
            PermutedRoundRobinSchedule(0, seed=0)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_passes_equal_random_shuffle(self, n, seed):
        # The schedule inlines shuffle's draws; every seeded artifact
        # assumes the two streams stay equal.
        expected = shuffled_passes(seed, range(n), 40)
        assert PermutedRoundRobinSchedule(n, seed).take(40 * n) == expected


class TestInterleavedLockstep:
    def test_every_window_has_each_pid_twice(self):
        n = 4
        slots = InterleavedLockstepSchedule(n, seed=2).take(2 * n * 20)
        for start in range(0, len(slots), 2 * n):
            window = slots[start : start + 2 * n]
            assert sorted(window) == sorted(list(range(n)) * 2)

    def test_splits_some_processs_pair(self):
        # The point of this family: some window runs one process's *second*
        # step before another process's *first* (permuted round-robin can't).
        n = 3
        slots = InterleavedLockstepSchedule(n, seed=0).take(2 * n * 50)
        interleaved = False
        for start in range(0, len(slots), 2 * n):
            window = slots[start : start + 2 * n]
            first = {pid: window.index(pid) for pid in range(n)}
            second = {
                pid: len(window) - 1 - window[::-1].index(pid)
                for pid in range(n)
            }
            if any(
                second[p] < first[q]
                for p in range(n)
                for q in range(n)
                if p != q
            ):
                interleaved = True
        assert interleaved

    def test_deterministic_per_seed_and_restartable(self):
        schedule = InterleavedLockstepSchedule(4, seed=7)
        assert schedule.take(48) == schedule.take(48)
        assert schedule.take(48) == InterleavedLockstepSchedule(4, seed=7).take(48)

    def test_rejects_zero_processes(self):
        with pytest.raises(ConfigurationError):
            InterleavedLockstepSchedule(0, seed=0)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_windows_equal_random_shuffle(self, n, seed):
        window = [pid for pid in range(n) for _ in range(2)]
        expected = shuffled_passes(seed, window, 40)
        assert InterleavedLockstepSchedule(n, seed).take(80 * n) == expected


SEEDED_FAMILIES = [
    lambda seed: RandomSchedule(3, seed),
    lambda seed: PermutedRoundRobinSchedule(3, seed),
    lambda seed: InterleavedLockstepSchedule(3, seed),
    lambda seed: BlockSchedule(3, 2, seed),
]


class TestSeedValidation:
    """A seeded schedule must be a pure function of an int seed: ``None``
    would seed from OS entropy, so two ``iter()`` calls would disagree."""

    @pytest.mark.parametrize("build", SEEDED_FAMILIES)
    @pytest.mark.parametrize("seed", [None, 1.5, "7"])
    def test_non_int_seed_is_refused(self, build, seed):
        with pytest.raises(ConfigurationError, match="int seed"):
            build(seed)

    @pytest.mark.parametrize("build", SEEDED_FAMILIES)
    def test_int_seed_restarts_identically(self, build):
        schedule = build(2012)
        assert schedule.take(40) == schedule.take(40)
