"""Unit and property tests for the O(1)-memory streaming schedules."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import (
    LimitedSchedule,
    ReversedRoundRobinSchedule,
    RoundRobinSchedule,
)
from repro.runtime.streaming import (
    FeistelPermutation,
    StreamingInterleavedSchedule,
    StreamingPermutedSchedule,
    StreamingRandomSchedule,
)
from repro.workloads.schedules import (
    MATERIALIZED_FAMILIES,
    MAX_MATERIALIZED_N,
    STREAMING_FAMILIES,
    ScheduleSpec,
    make_schedule,
)


def _take(schedule, count):
    iterator = iter(schedule)
    return [next(iterator) for _ in range(count)]


class TestFeistelPermutation:
    @pytest.mark.parametrize("domain", [1, 2, 3, 7, 16, 100, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF])
    def test_is_a_permutation(self, domain, seed):
        table = FeistelPermutation(domain, seed).table()
        assert sorted(table) == list(range(domain))

    def test_deterministic_per_seed(self):
        assert (FeistelPermutation(50, 7).table()
                == FeistelPermutation(50, 7).table())

    def test_seeds_give_different_permutations(self):
        # With domain 100! possible orders, two seeds colliding would be
        # astronomically unlikely unless the keying were broken.
        assert (FeistelPermutation(100, 1).table()
                != FeistelPermutation(100, 2).table())

    def test_rejects_out_of_domain_index(self):
        prp = FeistelPermutation(10, 3)
        with pytest.raises(ConfigurationError, match="outside"):
            prp.apply(10)
        with pytest.raises(ConfigurationError, match="outside"):
            prp.apply(-1)

    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigurationError, match="domain"):
            FeistelPermutation(0, 1)


#: The first 4n + 3 slots of ``round-robin`` and ``reversed``, as literals:
#: their O(1)-state generator classes are the only implementation of the
#: closed-form families, so these pin the streams every seeded artifact
#: built on them assumes.
ROUND_ROBIN_STREAMS = {
    1: [0] * 7,
    2: [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
    3: [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
    8: [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5,
        6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2],
    17: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 1, 2,
         3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 1, 2, 3, 4, 5,
         6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 1, 2, 3, 4, 5, 6, 7, 8,
         9, 10, 11, 12, 13, 14, 15, 16, 0, 1, 2],
}
REVERSED_STREAMS = {
    1: [0] * 7,
    2: [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    3: [2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0],
    8: [7, 6, 5, 4, 3, 2, 1, 0, 7, 6, 5, 4, 3, 2, 1, 0, 7, 6, 5, 4, 3, 2,
        1, 0, 7, 6, 5, 4, 3, 2, 1, 0, 7, 6, 5],
    17: [16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 16, 15,
         14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 16, 15, 14, 13,
         12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 16, 15, 14, 13, 12, 11,
         10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 16, 15, 14],
}


class TestDropInIdenticalFamilies:
    """``round-robin`` / ``reversed`` emit their literal closed-form streams,
    whether built directly or through :func:`make_schedule`."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_round_robin_streams_match(self, n):
        count = 4 * n + 3
        seeds = SeedTree(0).child("schedule")
        assert _take(RoundRobinSchedule(n), count) == ROUND_ROBIN_STREAMS[n]
        assert (_take(make_schedule("round-robin", n, seeds), count)
                == ROUND_ROBIN_STREAMS[n])

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_reversed_streams_match(self, n):
        count = 4 * n + 3
        seeds = SeedTree(0).child("schedule")
        assert _take(ReversedRoundRobinSchedule(n), count) == REVERSED_STREAMS[n]
        assert (_take(make_schedule("reversed", n, seeds), count)
                == REVERSED_STREAMS[n])

    def test_finite_rounds_honored(self):
        # ``rounds`` full passes are the first ``rounds * n`` slots.
        assert list(LimitedSchedule(RoundRobinSchedule(3), 2 * 3)) == [
            0, 1, 2, 0, 1, 2,
        ]
        assert list(LimitedSchedule(ReversedRoundRobinSchedule(3), 2 * 3)) == [
            2, 1, 0, 2, 1, 0,
        ]


class TestStreamingPermuted:
    @pytest.mark.parametrize("n", [1, 2, 5, 32, 100])
    def test_each_pass_is_a_permutation(self, n):
        schedule = StreamingPermutedSchedule(n, seed=42)
        stream = _take(schedule, 3 * n)
        for pass_index in range(3):
            window = stream[pass_index * n:(pass_index + 1) * n]
            assert sorted(window) == list(range(n))

    def test_passes_differ(self):
        n = 64
        stream = _take(StreamingPermutedSchedule(n, seed=9), 2 * n)
        assert stream[:n] != stream[n:]

    def test_matches_materialized_reference(self):
        # The slot stream must equal building each pass's permutation as
        # an explicit table through the same PRP — pid_at is a pure
        # function despite the one-entry memo, including random access.
        from repro.runtime.streaming import _mix64

        n, seed = 17, 5
        schedule = StreamingPermutedSchedule(n, seed)
        for pass_index in (0, 2, 1):  # out of order on purpose
            table = FeistelPermutation(
                n, _mix64(seed ^ (pass_index << 1) ^ 0x5EED)
            ).table()
            for offset in range(n):
                assert schedule.pid_at(pass_index * n + offset) == table[offset]

    def test_constant_memory_attributes_only(self):
        # No O(n) state: the schedule holds at most one pass's PRP, which
        # itself stores only round keys.
        schedule = StreamingPermutedSchedule(10**6, seed=1)
        assert schedule.pid_at(123456789) < 10**6
        assert not any(
            isinstance(value, (list, dict, set))
            for value in vars(schedule).values()
        )


class TestStreamingInterleaved:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_each_window_schedules_every_pid_twice(self, n):
        schedule = StreamingInterleavedSchedule(n, seed=3)
        stream = _take(schedule, 4 * n)
        for window_index in range(2):
            window = stream[window_index * 2 * n:(window_index + 1) * 2 * n]
            assert sorted(window) == sorted(list(range(n)) * 2)

    def test_windows_differ(self):
        n = 32
        stream = _take(StreamingInterleavedSchedule(n, seed=8), 4 * n)
        assert stream[:2 * n] != stream[2 * n:]


class TestStreamingRandom:
    def test_pids_in_range_and_deterministic(self):
        schedule = StreamingRandomSchedule(7, seed=11)
        stream = _take(schedule, 200)
        assert all(0 <= pid < 7 for pid in stream)
        assert stream == _take(StreamingRandomSchedule(7, seed=11), 200)
        assert stream != _take(StreamingRandomSchedule(7, seed=12), 200)

    def test_covers_all_pids(self):
        stream = _take(StreamingRandomSchedule(5, seed=2), 200)
        assert set(stream) == set(range(5))


class TestScheduleFamilyIntegration:
    @pytest.mark.parametrize("family", STREAMING_FAMILIES)
    def test_make_schedule_builds_streaming_families(self, family):
        schedule = make_schedule(family, 6, SeedTree(4).child("schedule"))
        stream = _take(schedule, 30)
        assert all(0 <= pid < 6 for pid in stream)

    def test_seeded_streaming_families_draw_private_seeds(self):
        seeds = SeedTree(4).child("schedule")
        first = make_schedule("streaming-permuted", 8, seeds)
        second = make_schedule("streaming-interleaved", 8, seeds)
        assert first.seed != second.seed

    def test_spec_round_trips_streaming_families(self):
        spec = ScheduleSpec("streaming-permuted", 9, seed=77)
        rebuilt = ScheduleSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert _take(rebuilt.build(), 18) == _take(spec.build(), 18)


class TestMaterializedScaleGuard:
    @pytest.mark.parametrize("family", MATERIALIZED_FAMILIES)
    def test_make_schedule_refuses_materialized_at_scale(self, family):
        with pytest.raises(ConfigurationError, match="streaming-"):
            make_schedule(
                family, MAX_MATERIALIZED_N + 1, SeedTree(1).child("schedule")
            )

    @pytest.mark.parametrize("family", MATERIALIZED_FAMILIES)
    def test_spec_refuses_materialized_at_scale(self, family):
        with pytest.raises(ConfigurationError, match="streaming-"):
            ScheduleSpec(family, MAX_MATERIALIZED_N + 1, seed=1)

    def test_limit_is_inclusive(self):
        # Exactly 2**20 processes is still allowed (the guard is >, not >=):
        # construction at the boundary only allocates one pid list.
        spec = ScheduleSpec("permuted", MAX_MATERIALIZED_N, seed=1)
        assert spec.n == MAX_MATERIALIZED_N

    def test_streaming_families_unlimited(self):
        schedule = make_schedule(
            "streaming-permuted", MAX_MATERIALIZED_N * 8,
            SeedTree(1).child("schedule"),
        )
        assert 0 <= schedule.pid_at(0) < MAX_MATERIALIZED_N * 8


@pytest.mark.parametrize("family", [
    StreamingPermutedSchedule,
    StreamingInterleavedSchedule,
    StreamingRandomSchedule,
])
@pytest.mark.parametrize("seed", [None, 1.5, "7"])
def test_non_int_seed_is_refused(family, seed):
    # A ConfigurationError at construction, not a bare TypeError on the
    # first slot.
    with pytest.raises(ConfigurationError, match="int seed"):
        family(3, seed)
