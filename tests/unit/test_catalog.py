"""Unit tests for the algorithm catalog and the registries it feeds."""

import pytest

from repro import catalog
from repro.analysis.theory import predicted_attribution
from repro.errors import ConfigurationError
from repro.fuzz.stacks import ladder_stack_names, stack_names
from repro.runtime.vectorized import _plan_for

CONCILIATOR_STACKS = [
    "snapshot",
    "snapshot-maxreg",
    "indirect-snapshot",
    "emulated-snapshot",
    "sifting",
    "sifting-anonymous",
    "cil-embedded",
    "doubling-cil",
    "naive",
    "chained-sift-snap",
]


class TestNames:
    def test_names_and_order_are_pinned(self):
        # The fuzz registry's order: the seeded stack draw, and with it the
        # committed corpus, depends on it.
        assert list(catalog.names()) == CONCILIATOR_STACKS

    def test_subsystem_subsets_keep_their_order(self):
        assert catalog.names("exposed") == (
            "snapshot", "snapshot-maxreg", "sifting", "cil-embedded",
            "doubling-cil",
        )
        assert catalog.names("decay_bound") == ("snapshot", "sifting")
        assert catalog.names("growth_class") == (
            "snapshot", "sifting", "doubling-cil",
        )
        assert catalog.names("kernel") == (
            "snapshot", "snapshot-maxreg", "sifting", "doubling-cil",
        )

    def test_unknown_name_refused(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            catalog.get("raft")


class TestRecords:
    @pytest.mark.parametrize("name", catalog.names())
    def test_kernel_matches_the_vectorized_plan(self, name):
        record = catalog.get(name)
        conciliator = record.factory(8)
        if record.kernel is None:
            with pytest.raises(ConfigurationError):
                _plan_for(conciliator)
        else:
            assert _plan_for(conciliator).algorithm == record.kernel

    @pytest.mark.parametrize("name", catalog.names("attribution"))
    def test_attribution_is_a_theory_prediction(self, name):
        algorithm, epsilon = catalog.get(name).attribution
        predicted = predicted_attribution(algorithm, 8, epsilon)
        assert predicted["individual_steps"] >= 1


class TestFuzzRegistry:
    def test_honest_stacks_unchanged(self):
        assert stack_names() == CONCILIATOR_STACKS + [
            "snapshot-ac",
            "collect-ac",
            "flag-ac",
            "binary-ac",
            "snapshot-consensus",
            "register-consensus",
            "cil-register-consensus",
        ]

    def test_ladder_crosses_every_conciliator_in_order(self):
        rungs = [
            "regular+late", "regular+noisy", "safe+late", "safe+noisy",
        ]
        assert ladder_stack_names() == [
            f"{base}+{rung}" for base in CONCILIATOR_STACKS for rung in rungs
        ]
        assert len(ladder_stack_names()) == 40
