"""Step-complexity checks: the quantities the paper's theorems bound.

The simulator counts exactly one step per shared-memory operation, so these
are exact measurements, not timings.
"""

import math

import pytest

from repro.analysis.experiments import (
    run_conciliator_trials,
    run_consensus_trials,
)
from repro.analysis.theory import (
    cil_total_steps_bound,
    sifting_step_count,
    snapshot_step_count,
)
from repro.baselines.doubling_cil import DoublingCILConciliator
from repro.core.cil_embedded import CILEmbeddedConciliator
from repro.core.consensus import register_consensus, snapshot_consensus
from repro.core.rounds import log_star
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator


class TestExactConciliatorCosts:
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_snapshot_steps_exact(self, n):
        stats = run_conciliator_trials(
            lambda: SnapshotConciliator(n),
            list(range(n)), trials=5, master_seed=1,
        )
        expected = snapshot_step_count(n, 0.5)
        assert stats.individual_steps.minimum == expected
        assert stats.individual_steps.maximum == expected

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_sifting_steps_exact(self, n):
        stats = run_conciliator_trials(
            lambda: SiftingConciliator(n),
            list(range(n)), trials=5, master_seed=2,
        )
        expected = sifting_step_count(n, 0.5)
        assert stats.individual_steps.minimum == expected
        assert stats.individual_steps.maximum == expected


class TestScalingShape:
    def test_sifting_grows_doubly_logarithmically(self):
        # Squaring n (log log n grows by one) adds exactly one round.
        costs = [sifting_step_count(n, 0.5) for n in (16, 256, 65536, 2**32)]
        assert [b - a for a, b in zip(costs, costs[1:])] == [1, 1, 1]

    def test_snapshot_grows_like_log_star(self):
        costs = {n: snapshot_step_count(n, 0.5) for n in (4, 65536)}
        assert costs[65536] - costs[4] == 2 * (log_star(65536) - log_star(4))

    def test_sifting_beats_doubling_cil_baseline(self):
        """E8's headline: log log n conciliator vs log n baseline."""
        for n in (64, 256, 1024):
            sifting = SiftingConciliator(n).step_bound()
            baseline = DoublingCILConciliator(n).step_bound()
            assert sifting < baseline, n

    def test_baseline_gap_widens_with_n(self):
        gap_small = (DoublingCILConciliator(16).step_bound()
                     - SiftingConciliator(16).step_bound())
        gap_large = (DoublingCILConciliator(4096).step_bound()
                     - SiftingConciliator(4096).step_bound())
        assert gap_large > gap_small


class TestTheorem3Costs:
    @pytest.mark.parametrize("n", [8, 32])
    def test_individual_steps_bounded_by_inner(self, n):
        stats = run_conciliator_trials(
            lambda: CILEmbeddedConciliator(n),
            list(range(n)), trials=30, master_seed=3,
        )
        inner = SiftingConciliator(n, epsilon=0.25).step_bound()
        worst_case = 2 * (inner + 1) + 7
        assert stats.individual_steps.maximum <= worst_case

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_expected_total_steps_linear(self, n):
        stats = run_conciliator_trials(
            lambda: CILEmbeddedConciliator(n),
            list(range(n)), trials=30, master_seed=4,
        )
        assert stats.total_steps.mean <= cil_total_steps_bound(n)

    def test_total_steps_per_process_stay_constant(self):
        """The point of Algorithm 3: total work ~n with a fixed constant.

        Plain Algorithm 2 costs exactly ``n * R(n)`` total steps, which
        grows like ``n log log n``; Algorithm 3's total divided by ``n``
        stays below a constant (~20) at every scale.  (At laptop scales
        ``R(n)`` is still comparable to that constant — the asymptotic
        crossover sits near ``n = 2^16`` — so the measurable claim is the
        flat per-process total, not a pointwise win.)
        """
        ratios = {}
        for n in (32, 128, 256):
            embedded = run_conciliator_trials(
                lambda: CILEmbeddedConciliator(n),
                list(range(n)), trials=10, master_seed=5,
            )
            plain = run_conciliator_trials(
                lambda: SiftingConciliator(n),
                list(range(n)), trials=10, master_seed=5,
            )
            # Plain Algorithm 2 costs exactly n * rounds total, always.
            assert plain.total_steps.mean == n * SiftingConciliator(n).rounds
            ratios[n] = embedded.total_steps.mean / n
        assert all(ratio <= 20.0 for ratio in ratios.values()), ratios


class TestConsensusCosts:
    def test_snapshot_consensus_expected_steps_near_one_phase(self):
        n = 16
        stats = run_consensus_trials(
            lambda: snapshot_consensus(n),
            list(range(n)), trials=20, master_seed=6,
        )
        assert stats.all_safe
        one_phase = snapshot_step_count(n, 0.5) + 4
        # Phases succeed with probability >= 1/2, so the mean should sit
        # within a few phases of the single-phase cost.
        assert stats.individual_steps.mean < 5 * one_phase

    def test_register_consensus_expected_steps_scale(self):
        results = {}
        for n in (8, 64):
            stats = run_consensus_trials(
                lambda: register_consensus(n, value_domain=range(8)),
                [pid % 8 for pid in range(n)],
                trials=20, master_seed=7,
            )
            assert stats.all_safe
            results[n] = stats.individual_steps.mean
        # Doubly-logarithmic conciliator + fixed-m adopt-commit: growing n
        # 8x should barely move the cost.
        assert results[64] < results[8] * 2

    def test_phase_count_geometric(self):
        n = 8
        stats = run_consensus_trials(
            lambda: register_consensus(n, value_domain=range(n)),
            list(range(n)), trials=30, master_seed=8,
        )
        # Each phase commits with probability >= 1/2 (eps = 1/2), so the
        # mean phase count is at most ~2 plus slack.
        assert stats.phases.mean <= 4.0
