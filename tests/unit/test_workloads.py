"""Unit tests for workload generators (inputs and schedule families)."""

import json

import pytest

from repro import cli
from repro.analysis.experiments import run_conciliator_trials
from repro.core.sifting_conciliator import SiftingConciliator
from repro.errors import ConfigurationError
from repro.runtime.rng import SeedTree
from repro.fuzz.scenario import make_inputs
from repro.workloads.inputs import (
    INPUT_WORKLOADS,
    all_distinct_inputs,
    binary_inputs,
    k_valued_inputs,
    make_input,
    skewed_inputs,
    standard_input_gallery,
    unanimous_inputs,
)
from repro.runtime.vectorized import supported_families
from repro.service import SessionRequest
from repro.workloads.schedules import (
    ALL_SCHEDULE_FAMILIES,
    PARTIAL_FAMILIES,
    SCHEDULE_FAMILIES,
    ScheduleSpec,
    make_schedule,
    schedule_gallery,
)


class TestInputGenerators:
    def test_all_distinct(self):
        inputs = all_distinct_inputs(5)
        assert len(set(inputs)) == 5

    def test_binary_values(self):
        inputs = binary_inputs(100, split=0.5, seed=1)
        assert set(inputs) <= {0, 1}
        assert 20 < sum(inputs) < 80

    def test_binary_extreme_splits(self):
        assert sum(binary_inputs(50, split=0.0)) == 0
        assert sum(binary_inputs(50, split=1.0)) == 50

    def test_binary_rejects_bad_split(self):
        with pytest.raises(ConfigurationError):
            binary_inputs(5, split=1.5)

    def test_k_valued_range(self):
        inputs = k_valued_inputs(200, 7, seed=2)
        assert set(inputs) <= set(range(7))

    def test_k_valued_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            k_valued_inputs(5, 0)

    def test_skewed_minority(self):
        inputs = skewed_inputs(10, majority_value="m", minority_count=3)
        assert inputs.count("m") == 7
        assert len(set(inputs)) == 4

    def test_skewed_rejects_oversized_minority(self):
        with pytest.raises(ConfigurationError):
            skewed_inputs(3, minority_count=4)

    def test_unanimous(self):
        assert set(unanimous_inputs(6, "v")) == {"v"}

    def test_gallery_shapes(self):
        gallery = standard_input_gallery(8, seed=3)
        assert set(gallery) == {
            "distinct", "binary", "four-valued", "skewed", "unanimous"
        }
        assert all(len(inputs) == 8 for inputs in gallery.values())

    def test_deterministic_given_seed(self):
        assert binary_inputs(50, seed=9) == binary_inputs(50, seed=9)

    def test_rejects_zero_processes(self):
        with pytest.raises(ConfigurationError):
            all_distinct_inputs(0)


def reference_gallery(n, seed):
    """The gallery as it was built before ``make_input``: all five
    assignments from the generators, each with its own seeded stream."""
    return {
        "distinct": all_distinct_inputs(n),
        "binary": binary_inputs(n, seed=seed),
        "four-valued": k_valued_inputs(n, min(4, n), seed=seed),
        "skewed": skewed_inputs(n, minority_count=min(2, n)),
        "unanimous": unanimous_inputs(n),
    }


SEEDS = (0, 3, 2**31 - 1, 2**32, 2**32 + 5, 2**40 + 1, 2**48 - 1)


class TestMakeInput:
    def test_names_are_the_gallery_keys_in_order(self):
        assert list(standard_input_gallery(4)) == list(INPUT_WORKLOADS)

    @pytest.mark.parametrize("name", INPUT_WORKLOADS)
    def test_equals_the_gallery_entry(self, name):
        for n in range(1, 9):
            for seed in SEEDS:
                expected = reference_gallery(n, seed)[name]
                assert make_input(name, n, seed) == expected, (n, seed)
                assert standard_input_gallery(n, seed)[name] == expected

    @pytest.mark.parametrize("name", INPUT_WORKLOADS)
    def test_fuzz_inputs_reduce_the_seed_first(self, name):
        for n in range(1, 9):
            for seed in SEEDS:
                expected = reference_gallery(n, seed % 2**32)[name]
                assert make_inputs(name, n, seed) == expected, (n, seed)

    def test_pinned_values(self):
        # Computed before make_input existed; seeds >= 2**32 included.
        assert make_input("binary", 8, 3) == [1, 0, 1, 0, 0, 1, 1, 0]
        assert make_input("four-valued", 8, 2**32 + 5) == [
            1, 3, 2, 0, 2, 1, 3, 2]
        assert make_input("binary", 6, 2**40 + 1) == [1, 0, 0, 0, 1, 0]
        assert make_inputs("four-valued", 7, 2**47 + 123) == [
            0, 2, 0, 3, 2, 0, 0]
        assert make_inputs("binary", 5, 2**33 + 9) == [1, 1, 1, 0, 1]

    def test_rejects_an_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            make_input("nope", 4)

    def test_rejects_zero_processes(self):
        for name in INPUT_WORKLOADS:
            with pytest.raises(ConfigurationError):
                make_input(name, 0)


class TestScheduleFamilies:
    def test_every_family_constructs(self):
        seeds = SeedTree(1)
        for family in SCHEDULE_FAMILIES:
            schedule = make_schedule(family, 4, seeds.child(family))
            assert schedule.n == 4
            assert all(0 <= pid < 4 for pid in schedule.take(40))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            make_schedule("nonsense", 4, SeedTree(0))

    def test_gallery_excludes_crash_for_n1(self):
        gallery = schedule_gallery(1, SeedTree(0))
        assert "crash-half" not in gallery
        assert "round-robin" in gallery

    def test_gallery_is_reproducible(self):
        one = schedule_gallery(4, SeedTree(5))["random"].take(30)
        two = schedule_gallery(4, SeedTree(5))["random"].take(30)
        assert one == two

    def test_different_trial_seeds_differ(self):
        one = make_schedule("random", 4, SeedTree(1)).take(30)
        two = make_schedule("random", 4, SeedTree(2)).take(30)
        assert one != two


class TestScheduleSpec:
    def test_family_spec_builds_the_same_schedule(self):
        from repro.workloads.schedules import ScheduleSpec

        spec = ScheduleSpec("random", 4, seed=9)
        assert spec.build().take(30) == spec.build().take(30)
        assert spec.build().take(30) == ScheduleSpec("random", 4, seed=9).build().take(30)

    def test_explicit_spec_round_trips(self):
        from repro.workloads.schedules import ScheduleSpec

        spec = ScheduleSpec("explicit", 3, slots=(0, 1, 2, 2, 0))
        restored = ScheduleSpec.from_json(spec.to_json())
        assert restored == spec
        assert hash(restored) == hash(spec)
        assert restored.build().take(10) == [0, 1, 2, 2, 0]

    def test_validation(self):
        from repro.workloads.schedules import ScheduleSpec

        with pytest.raises(ConfigurationError, match="slots"):
            ScheduleSpec("explicit", 3)
        with pytest.raises(ConfigurationError, match="slots"):
            ScheduleSpec("random", 3, slots=(0, 1))
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            ScheduleSpec("nonsense", 3)
        with pytest.raises(ConfigurationError):
            ScheduleSpec("explicit", 2, slots=(0, 5))

    def test_unknown_version_rejected(self):
        from repro.workloads.schedules import ScheduleSpec

        data = ScheduleSpec("random", 3, seed=1).to_json()
        data["version"] = 0
        with pytest.raises(ConfigurationError, match="version"):
            ScheduleSpec.from_json(data)

    def test_is_finite_flags_partial_run_families(self):
        from repro.workloads.schedules import ScheduleSpec

        assert ScheduleSpec("explicit", 2, slots=(0, 1)).is_finite
        assert ScheduleSpec("crash-half", 4).is_finite
        assert not ScheduleSpec("round-robin", 4).is_finite
        assert not ScheduleSpec("random", 4).is_finite

    @pytest.mark.parametrize("family", ALL_SCHEDULE_FAMILIES)
    def test_every_family_round_trips_and_rebuilds(self, family):
        n = 5
        spec = ScheduleSpec(family, n, seed=2012)
        restored = ScheduleSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert restored == spec
        assert restored.build().take(4 * n + 3) == spec.build().take(4 * n + 3)


class TestRemovedFamilies:
    """``round-robin`` has no streaming twin: every entry point refuses
    ``streaming-round-robin`` as an unknown family."""

    def test_make_schedule_refuses(self):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            make_schedule("streaming-round-robin", 4, SeedTree(0))

    def test_schedule_spec_refuses(self):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            ScheduleSpec("streaming-round-robin", 4)

    def test_session_request_refuses(self):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            SessionRequest(session_id=1, schedule_family="streaming-round-robin")


class TestPartialFamilies:
    """One fact, three readers: the spec, the sweep's run key and the
    consensus command all take "runs partial" from ``PARTIAL_FAMILIES``."""

    @pytest.mark.parametrize("family", ["crash-half", "random"])
    def test_readers_agree(self, family, tmp_path, monkeypatch, capsys):
        partial = family in PARTIAL_FAMILIES
        assert partial == (family == "crash-half")
        assert ScheduleSpec(family, 4).is_finite == partial

        journal = tmp_path / "sweep.journal"
        run_conciliator_trials(
            lambda: SiftingConciliator(4), list(range(4)),
            schedule_family=family, trials=3, master_seed=1,
            checkpoint_path=str(journal),
        )
        header = json.loads(journal.read_text().splitlines()[0])
        assert f"partial={int(partial)}" in header["run_key"].split("|")

        partial_runs = []
        run_programs = cli.run_programs

        def spy(*args, **kwargs):
            partial_runs.append(kwargs.get("allow_partial"))
            return run_programs(*args, **kwargs)

        monkeypatch.setattr(cli, "run_programs", spy)
        assert cli.main(["consensus", "--n", "6", "--schedule", family]) == 0
        assert partial_runs == ([True] if partial else [])
        assert f"adversary={family}" in capsys.readouterr().out


class TestLockstepFamilies:
    """The vectorized-backend families ride alongside the fuzz-stable ones."""

    def test_family_lists_are_consistent(self):
        # SCHEDULE_FAMILIES is frozen (fuzz corpus determinism); the new
        # lockstep families extend it without reordering.
        from repro.workloads.schedules import STREAMING_FAMILIES

        assert ALL_SCHEDULE_FAMILIES[: len(SCHEDULE_FAMILIES)] == SCHEDULE_FAMILIES
        assert set(ALL_SCHEDULE_FAMILIES) - set(SCHEDULE_FAMILIES) == {
            "permuted",
            "interleaved",
            *STREAMING_FAMILIES,
        }
        assert STREAMING_FAMILIES == (
            "streaming-permuted",
            "streaming-interleaved",
            "streaming-random",
        )
        # Every family a vectorized kernel batches is one make_schedule builds.
        for algorithm in ("sifting", "snapshot", "cil"):
            for oracle in (False, True):
                assert set(supported_families(algorithm, oracle)) <= set(
                    ALL_SCHEDULE_FAMILIES
                )

    def test_new_families_construct_and_cover_processes(self):
        seeds = SeedTree(3)
        for family in ("permuted", "interleaved"):
            schedule = make_schedule(family, 4, seeds.child(family))
            assert schedule.n == 4
            slots = schedule.take(80)
            assert set(slots) == set(range(4))

    def test_new_families_are_seed_deterministic(self):
        for family in ("permuted", "interleaved"):
            one = make_schedule(family, 5, SeedTree(7)).take(60)
            two = make_schedule(family, 5, SeedTree(7)).take(60)
            three = make_schedule(family, 5, SeedTree(8)).take(60)
            assert one == two
            assert one != three

    def test_new_families_draw_from_schedule_branch(self):
        # Same contract as the other randomized families: the schedule's
        # randomness comes from its own child branch of the trial seed tree,
        # never from the algorithm's coin streams.
        seeds = SeedTree(11)
        direct = make_schedule("permuted", 4, seeds.child("schedule"))
        again = make_schedule("permuted", 4, seeds.child("schedule"))
        assert direct.take(40) == again.take(40)
