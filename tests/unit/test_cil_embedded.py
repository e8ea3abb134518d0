"""Unit tests for Algorithm 3 (CIL conciliator with embedded sifter)."""

import pytest

import helpers
from repro.core.cil_embedded import CILEmbeddedConciliator, INNER_EPSILON
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.errors import ConfigurationError
from repro.runtime.scheduler import RoundRobinSchedule


class TestConfiguration:
    def test_inner_defaults_to_quarter_epsilon_sifter(self):
        conciliator = CILEmbeddedConciliator(16)
        assert isinstance(conciliator.inner, SiftingConciliator)
        assert conciliator.inner.epsilon == INNER_EPSILON

    def test_inner_factory_override(self):
        conciliator = CILEmbeddedConciliator(
            8, inner_factory=lambda n: SnapshotConciliator(n, epsilon=0.25)
        )
        assert isinstance(conciliator.inner, SnapshotConciliator)

    def test_inner_n_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            CILEmbeddedConciliator(8, inner_factory=lambda n: SiftingConciliator(4))

    def test_default_write_probability(self):
        conciliator = CILEmbeddedConciliator(10)
        assert conciliator.write_probability == pytest.approx(1 / 40)


class TestStepBound:
    @pytest.mark.parametrize("n", list(range(1, 301)) + [10**3, 4096, 10**5])
    def test_matches_independent_closed_form(self, n):
        from repro.analysis.theory import cil_individual_step_bound

        assert CILEmbeddedConciliator(n).step_bound() == (
            cil_individual_step_bound(n)
        )


class TestExecution:
    def test_terminates_and_valid(self):
        n = 8
        for seed in range(8):
            conciliator = CILEmbeddedConciliator(n)
            result = helpers.run_conciliator_once(
                conciliator, list(range(n)), seed=seed
            )
            assert result.completed
            assert result.validity_holds({pid: pid for pid in range(n)})

    def test_worst_case_individual_steps(self):
        """Main loop runs at most inner_steps + 1 iterations of <= 2 ops,
        plus combine: 1 write + binary AC (<= 5) + 1 read."""
        n = 16
        for seed in range(10):
            conciliator = CILEmbeddedConciliator(n)
            bound = 2 * (conciliator.inner.step_bound() + 1) + 7
            result = helpers.run_conciliator_once(
                conciliator, list(range(n)), seed=seed
            )
            assert result.max_individual_steps <= bound

    def test_combine_fallback_never_fires(self):
        # Theorem 3's initialization argument: the out register a process is
        # directed to is always written before it reads.
        n = 8
        for seed in range(20):
            conciliator = CILEmbeddedConciliator(n)
            helpers.run_conciliator_once(conciliator, list(range(n)), seed=seed)
            assert conciliator.fallback_count == 0

    def test_exit_side_accounting(self):
        n = 8
        conciliator = CILEmbeddedConciliator(n)
        helpers.run_conciliator_once(conciliator, list(range(n)), seed=3)
        assert conciliator.proposal_exits + conciliator.inner_completions == n

    def test_write_probability_one_behaves_like_pure_cil(self):
        # Every process writes proposal at its first opportunity; the first
        # scheduled process's value is read by all later ones.
        n = 4
        conciliator = CILEmbeddedConciliator(n, write_probability=1.0)
        result = helpers.run_conciliator_once(
            conciliator, list(range(n)), schedule=RoundRobinSchedule(n), seed=4
        )
        assert result.completed
        assert conciliator.inner_completions == 0

    def test_write_probability_zero_reduces_to_inner_sifter(self):
        # Nobody ever writes proposal, so everyone finishes the sifter and
        # combine sees a single side.
        n = 8
        conciliator = CILEmbeddedConciliator(n, write_probability=0.0)
        result = helpers.run_conciliator_once(conciliator, list(range(n)), seed=5)
        assert conciliator.inner_completions == n
        assert conciliator.proposal_exits == 0
        assert result.completed

    def test_unanimous_inputs_always_agree(self):
        n = 6
        for seed in range(10):
            conciliator = CILEmbeddedConciliator(n)
            result = helpers.run_conciliator_once(conciliator, ["v"] * n, seed=seed)
            # Validity forces the unique input value everywhere.
            assert result.decided_values == {"v"}

    def test_agreement_rate_exceeds_theorem_floor(self):
        n = 8
        rate = helpers.agreement_rate(
            lambda: CILEmbeddedConciliator(n), list(range(n)), trials=80, seed=6
        )
        assert rate >= 1 / 8

    def test_snapshot_inner_variant_runs(self):
        # End of Section 4: the same embedding works for Algorithm 1.
        n = 8
        conciliator = CILEmbeddedConciliator(
            n, inner_factory=lambda count: SnapshotConciliator(count, epsilon=0.25)
        )
        result = helpers.run_conciliator_once(conciliator, list(range(n)), seed=7)
        assert result.completed
        assert result.validity_holds({pid: pid for pid in range(n)})

    def test_solo_process(self):
        conciliator = CILEmbeddedConciliator(1)
        result = helpers.run_conciliator_once(conciliator, ["only"], seed=8)
        assert result.outputs[0] == "only"
