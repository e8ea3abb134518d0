"""Unit tests for the seed tree (randomness plumbing)."""

import hashlib

import pytest

from repro.runtime.rng import SeedTree, _process_streams, derive_seed


def uncached_seed(master, *labels):
    hasher = hashlib.sha256(str(master).encode("ascii"))
    for label in labels:
        hasher.update(b"\x00" + label.encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_distinct_labels_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_distinct_masters_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_structure_matters(self):
        # ("a", "b") must differ from ("ab",): labels are delimited.
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_empty_path_differs_from_any_label(self):
        assert derive_seed(5) != derive_seed(5, "")

    def test_non_negative(self):
        assert derive_seed(123, "x") >= 0

    def test_prefix_cache_matches_uncached_hash(self):
        # Interleave siblings, other prefixes, other masters, empty label
        # lists and non-ASCII labels, so every call either hits or evicts
        # the cached prefix of the call before it.
        paths = [
            (7, "algorithm", "process-0"),
            (7, "algorithm", "process-1"),
            (7, "schedule"),
            (7, "algorithm", "process-2"),
            (7,),
            (7, "algorithm", "process-2"),
            (8, "algorithm", "process-2"),
            (7, "algorithm", "process-3"),
            (7, "algorithm"),
            (7, "algorithm", ""),
            (7, "", ""),
            (-3, "ünïcødé", "标签"),
            (-3, "ünïcødé", "ラベル"),
            (-3, "ünïcødé"),
            (2**70, "a", "b", "c"),
            (2**70, "a", "b", "d"),
            (2**70, "a", "bc"),
        ]
        for path in paths + paths[::-1]:
            assert derive_seed(*path) == uncached_seed(*path), path

    def test_prefix_cache_keys_on_the_master_text(self):
        # True == 1 and -0.0 == 0.0, but their decimal texts differ.
        for first, second in ((1, True), (0.0, -0.0), (1, 1.0)):
            assert derive_seed(first, "a", "b") == uncached_seed(first, "a", "b")
            assert derive_seed(second, "a", "b") == uncached_seed(second, "a", "b")


class TestProcessStreams:
    @pytest.mark.parametrize("n", [1, 2, 32, 257])
    def test_each_pid_gets_its_algorithm_branch_stream(self, n):
        trial = SeedTree(2012).child("trial-3")
        streams = list(_process_streams(trial, n))
        assert len(streams) == n
        for pid, stream in enumerate(streams):
            expected = trial.child("algorithm").child(f"process-{pid}").rng()
            assert [stream.getrandbits(64) for _ in range(3)] == [
                expected.getrandbits(64) for _ in range(3)
            ], pid

    def test_root_tree_and_interleaved_derivations(self):
        # Another derivation between two streams evicts the cached
        # prefix; the next stream must still be the right one.
        root = SeedTree(-7)
        streams = _process_streams(root, 3)
        for pid, stream in enumerate(streams):
            derive_seed(99, "other", "branch")
            expected = root.child("algorithm").child(f"process-{pid}").rng()
            assert stream.random() == expected.random()


class TestSeedTree:
    def test_root_seed_is_master(self):
        assert SeedTree(99).seed == 99

    def test_child_path(self):
        tree = SeedTree(1).child("a").child("b")
        assert tree.path == ("a", "b")

    def test_same_path_same_stream(self):
        one = SeedTree(7).child("x").rng()
        two = SeedTree(7).child("x").rng()
        assert [one.random() for _ in range(5)] == [two.random() for _ in range(5)]

    def test_sibling_streams_differ(self):
        one = SeedTree(7).child("x").rng()
        two = SeedTree(7).child("y").rng()
        assert [one.random() for _ in range(5)] != [two.random() for _ in range(5)]

    def test_schedule_and_algorithm_branches_are_independent(self):
        # The structural independence the oblivious model relies on.
        tree = SeedTree(42)
        schedule = tree.child("schedule").rng()
        algorithm = tree.child("algorithm").rng()
        assert schedule.getrandbits(64) != algorithm.getrandbits(64)

    def test_children_generator(self):
        tree = SeedTree(3)
        kids = list(tree.children("proc", 4))
        assert len(kids) == 4
        assert len({kid.seed for kid in kids}) == 4

    def test_equality_and_hash(self):
        assert SeedTree(1).child("a") == SeedTree(1).child("a")
        assert hash(SeedTree(1).child("a")) == hash(SeedTree(1).child("a"))
        assert SeedTree(1).child("a") != SeedTree(1).child("b")

    def test_equality_not_implemented_for_other_types(self):
        assert SeedTree(1) != "not a tree"

    def test_tree_is_immutable_by_branching(self):
        root = SeedTree(5)
        child = root.child("x")
        assert root.path == ()
        assert child.path == ("x",)
