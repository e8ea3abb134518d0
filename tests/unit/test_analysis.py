"""Unit tests for the analysis package (stats, tables, theory, runners)."""

import math

import pytest

from repro.analysis.experiments import (
    decay_series,
    merge_conciliator_stats,
    merge_consensus_stats,
    run_conciliator_trials,
    run_consensus_trials,
    trial_seed_tree,
)
from repro.runtime.rng import SeedTree
from repro.analysis.stats import (
    SampleSummary,
    mean,
    sample_std,
    summarize,
    fisher_exact_two_sided,
    wilson_interval,
)
from repro.analysis.tables import format_float, render_table
from repro.analysis.theory import (
    cil_total_steps_bound,
    doubling_cil_step_bound,
    harmonic,
    sifting_decay_bound,
    sifting_step_count,
    snapshot_decay_bound,
    snapshot_step_count,
)
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.core.consensus import register_consensus
from repro.errors import ConfigurationError


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean([])

    def test_sample_std(self):
        assert sample_std([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))
        assert sample_std([5.0]) == 0.0

    def test_wilson_interval_contains_proportion(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high
        assert 0.0 <= low <= high <= 1.0

    def test_wilson_interval_extremes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0

    def test_wilson_narrower_with_more_trials(self):
        small = wilson_interval(8, 10)
        large = wilson_interval(800, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_wilson_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)

    def test_summarize(self):
        summary = summarize([1.0, 3.0])
        assert summary == SampleSummary(2, 2.0, sample_std([1.0, 3.0]), 1.0, 3.0)
        assert "mean=2.000" in str(summary)


class TestWilsonEdges:
    def test_zero_successes(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0
        assert 0.0 < high < 0.3  # still informative, not [0, 1]

    def test_all_successes(self):
        low, high = wilson_interval(20, 20)
        assert high == 1.0
        assert 0.7 < low < 1.0

    def test_single_trial(self):
        low, high = wilson_interval(0, 1)
        assert low == 0.0
        assert high < 1.0
        low, high = wilson_interval(1, 1)
        assert low > 0.0
        assert high == 1.0

    def test_single_trial_intervals_are_symmetric(self):
        fail_low, fail_high = wilson_interval(0, 1)
        win_low, win_high = wilson_interval(1, 1)
        assert fail_high == pytest.approx(1.0 - win_low)
        assert fail_low == pytest.approx(1.0 - win_high)


class TestSampleSummaryMerge:
    def test_merge_matches_pooled_summary(self):
        left, right = [1.0, 2.0, 7.0], [4.0, 4.0]
        merged = summarize(left).merge(summarize(right))
        pooled = summarize(left + right)
        assert merged.count == pooled.count
        assert merged.minimum == pooled.minimum
        assert merged.maximum == pooled.maximum
        assert merged.mean == pytest.approx(pooled.mean)
        assert merged.std == pytest.approx(pooled.std)

    def test_merge_is_associative(self):
        a, b, c = summarize([1.0, 5.0]), summarize([2.0]), summarize([8.0, 0.5])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.count == right.count == 5
        assert left.minimum == right.minimum
        assert left.maximum == right.maximum
        assert left.mean == pytest.approx(right.mean)
        assert left.std == pytest.approx(right.std)

    def test_merge_is_commutative(self):
        a, b = summarize([1.0, 2.0, 3.0]), summarize([10.0])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.count == ba.count
        assert ab.mean == pytest.approx(ba.mean)
        assert ab.std == pytest.approx(ba.std)

    def test_merge_singletons(self):
        merged = summarize([3.0]).merge(summarize([5.0]))
        assert merged == summarize([3.0, 5.0])

    def test_merge_rejects_empty(self):
        good = summarize([1.0])
        hollow = SampleSummary(0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            good.merge(hollow)
        with pytest.raises(ConfigurationError):
            hollow.merge(good)

    def test_merge_rejects_non_finite_moments(self):
        good = summarize([1.0, 2.0])
        for poisoned in (
            SampleSummary(3, float("nan"), 0.0, 0.0, 1.0),
            SampleSummary(3, 1.0, float("inf"), 0.0, 1.0),
            SampleSummary(3, 1.0, 0.0, float("-inf"), 1.0),
        ):
            with pytest.raises(ConfigurationError, match="non-finite"):
                good.merge(poisoned)
            with pytest.raises(ConfigurationError, match="non-finite"):
                poisoned.merge(good)


class TestTables:
    def test_format_float(self):
        assert format_float(2.0) == "2"
        assert format_float(2.5) == "2.500"
        assert format_float("x") == "x"
        assert format_float(True) == "True"
        assert format_float(float("nan")) == "nan"

    def test_render_alignment(self):
        table = render_table(["col", "value"], [[1, 2.5], [100, 3]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_title(self):
        assert render_table(["a"], [[1]], title="T").startswith("T\n")


class TestTheory:
    def test_harmonic(self):
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
        assert harmonic(0) == 0.0

    def test_harmonic_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            harmonic(-1)

    def test_snapshot_decay_bound_is_decreasing(self):
        bounds = snapshot_decay_bound(1000, 6)
        assert all(bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1))

    def test_snapshot_decay_reaches_below_half(self):
        # Theorem 1: after log* n + log(1/eps) + 1 rounds, bound <= eps/2.
        from repro.core.rounds import snapshot_rounds

        n, eps = 1000, 0.5
        bounds = snapshot_decay_bound(n, snapshot_rounds(n, eps))
        assert bounds[-1] <= eps / 2

    def test_sifting_decay_bound_matches_lemmas(self):
        from repro.core.probabilities import sift_x
        from repro.core.rounds import sifting_switch_round

        n = 256
        switch = sifting_switch_round(n)
        bounds = sifting_decay_bound(n, switch + 3)
        assert bounds[switch - 1] == pytest.approx(sift_x(switch, n))
        # After the switch: multiply by 3/4 each round.
        assert bounds[switch] == pytest.approx(bounds[switch - 1] * 0.75)

    def test_step_counts_match_round_formulas(self):
        from repro.core.rounds import sifting_rounds, snapshot_rounds

        assert snapshot_step_count(64, 0.5) == 2 * snapshot_rounds(64, 0.5)
        assert sifting_step_count(64, 0.5) == sifting_rounds(64, 0.5)

    def test_doubling_cil_bound_logarithmic(self):
        assert doubling_cil_step_bound(1024) == 2 * (11 + 1)

    def test_cil_total_bound_linear(self):
        assert cil_total_steps_bound(10) == 200.0
        assert cil_total_steps_bound(20) == 2 * cil_total_steps_bound(10)
        with pytest.raises(ConfigurationError):
            cil_total_steps_bound(0)

    def test_predicted_attribution_covers_all_algorithms(self):
        from repro.analysis.theory import (
            ATTRIBUTION_ALGORITHMS,
            cil_individual_step_bound,
            cil_inner_rounds,
            predicted_attribution,
        )
        from repro.core.rounds import sifting_rounds, snapshot_rounds

        n = 64
        snap = predicted_attribution("snapshot", n)
        assert snap["relation"] == "exact"
        assert snap["rounds"] == snapshot_rounds(n, 0.5)
        assert snap["individual_steps"] == 2 * snap["rounds"]

        sift = predicted_attribution("sifting", n)
        assert sift["relation"] == "exact"
        assert sift["rounds"] == sifting_rounds(n, 0.5)
        assert sift["individual_steps"] == sift["rounds"]

        cil = predicted_attribution("cil-embedded", n)
        assert cil["relation"] == "upper-bound"
        assert cil["epsilon"] == 0.25  # forced to the inner epsilon
        assert cil["rounds"] == cil_inner_rounds(n) \
            == sifting_rounds(n, 0.25)
        assert cil["individual_steps"] == cil_individual_step_bound(n)

        assert set(ATTRIBUTION_ALGORITHMS) \
            == {"snapshot", "sifting", "cil-embedded"}
        with pytest.raises(ConfigurationError, match="no attribution"):
            predicted_attribution("magic", n)


class TestRunners:
    def test_conciliator_trials_aggregate(self):
        stats = run_conciliator_trials(
            lambda: SiftingConciliator(8),
            list(range(8)),
            trials=10,
            master_seed=1,
        )
        assert stats.trials == 10
        assert 0.0 <= stats.agreement_rate <= 1.0
        assert stats.validity_failures == 0
        low, high = stats.agreement_interval
        assert low <= stats.agreement_rate <= high

    def test_conciliator_trials_exact_steps(self):
        conciliator_rounds = SiftingConciliator(8).rounds
        stats = run_conciliator_trials(
            lambda: SiftingConciliator(8),
            list(range(8)),
            trials=5,
            master_seed=2,
        )
        assert stats.individual_steps.maximum == conciliator_rounds

    def test_conciliator_trials_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            run_conciliator_trials(
                lambda: SiftingConciliator(2), [0, 1], trials=0
            )

    def test_crash_family_defaults_to_partial(self):
        stats = run_conciliator_trials(
            lambda: SiftingConciliator(4),
            list(range(4)),
            schedule_family="crash-half",
            trials=5,
            master_seed=3,
        )
        assert stats.validity_failures == 0

    def test_consensus_trials_safety(self):
        stats = run_consensus_trials(
            lambda: register_consensus(4, value_domain=range(4)),
            list(range(4)),
            trials=8,
            master_seed=4,
        )
        assert stats.all_safe
        assert stats.phases.mean >= 1.0

    def test_decay_series_shape(self):
        series = decay_series(
            lambda: SnapshotConciliator(16),
            list(range(16)),
            trials=5,
            master_seed=5,
        )
        assert len(series) == SnapshotConciliator(16).rounds
        assert series[0] <= 16
        assert series[-1] >= 1.0

    def test_trial_seed_tree_matches_serial_derivation(self):
        assert trial_seed_tree(7, 3) == SeedTree(7).child("trial-3")


class TestSweepValidation:
    """trials > 0 and n > 1 are rejected loudly, never degenerate stats."""

    def test_conciliator_rejects_nonpositive_trials(self):
        for trials in (0, -5):
            with pytest.raises(ConfigurationError, match="trials"):
                run_conciliator_trials(
                    lambda: SiftingConciliator(2), [0, 1], trials=trials
                )

    def test_conciliator_rejects_degenerate_n(self):
        for inputs in ([], [0]):
            with pytest.raises(ConfigurationError, match="at least 2"):
                run_conciliator_trials(
                    lambda: SiftingConciliator(2), inputs, trials=5
                )

    def test_consensus_rejects_nonpositive_trials(self):
        for trials in (0, -1):
            with pytest.raises(ConfigurationError, match="trials"):
                run_consensus_trials(
                    lambda: register_consensus(2, value_domain=range(2)),
                    [0, 1],
                    trials=trials,
                )

    def test_consensus_rejects_degenerate_n(self):
        for inputs in ([], [1]):
            with pytest.raises(ConfigurationError, match="at least 2"):
                run_consensus_trials(
                    lambda: register_consensus(2, value_domain=range(2)),
                    inputs,
                    trials=5,
                )

    def test_decay_series_rejects_degenerate_sweeps(self):
        with pytest.raises(ConfigurationError, match="trials"):
            decay_series(lambda: SiftingConciliator(2), [0, 1], trials=0)
        with pytest.raises(ConfigurationError, match="at least 2"):
            decay_series(lambda: SiftingConciliator(2), [0], trials=5)

    def test_inputs_must_match_the_protocol_size(self):
        """Six inputs for an 8-process protocol are refused by every
        runner, never run as a smaller system."""
        from repro.errors import SimulationError

        for run, factory in (
            (run_conciliator_trials, lambda: SiftingConciliator(8)),
            (decay_series, lambda: SiftingConciliator(8)),
            (run_consensus_trials,
             lambda: register_consensus(8, value_domain=range(8))),
        ):
            with pytest.raises(SimulationError, match="6 inputs for 8"):
                run(factory, list(range(6)), trials=2, workers=1)


class TestMergeStats:
    """Pooling disjoint sweeps via SampleSummary.merge."""

    def _shard(self, master_seed, trials=6):
        return run_conciliator_trials(
            lambda: SiftingConciliator(4),
            list(range(4)),
            trials=trials,
            master_seed=master_seed,
        )

    def test_merge_conciliator_stats_pools_counts_exactly(self):
        first, second = self._shard(1), self._shard(2, trials=4)
        merged = merge_conciliator_stats(first, second)
        assert merged.trials == 10
        assert merged.agreement_count == (
            first.agreement_count + second.agreement_count
        )
        assert merged.validity_failures == (
            first.validity_failures + second.validity_failures
        )
        assert merged.individual_steps.count == 10
        assert merged.total_steps.maximum == max(
            first.total_steps.maximum, second.total_steps.maximum
        )
        # the pooled rate is consistent with the pooled Wilson interval
        low, high = merged.agreement_interval
        assert low <= merged.agreement_rate <= high

    def test_merge_conciliator_stats_rejects_mismatched_n(self):
        small = self._shard(1)
        big = run_conciliator_trials(
            lambda: SiftingConciliator(8),
            list(range(8)),
            trials=3,
            master_seed=1,
        )
        with pytest.raises(ConfigurationError, match="different n"):
            merge_conciliator_stats(small, big)

    def test_stats_record_the_protocol_kind(self):
        stats = self._shard(1)
        assert stats.kind == SiftingConciliator(4).name

    def test_merge_conciliator_stats_rejects_mismatched_kind(self):
        sifting = self._shard(1)
        snapshot = run_conciliator_trials(
            lambda: SnapshotConciliator(4),
            list(range(4)),
            trials=3,
            master_seed=1,
        )
        assert sifting.kind != snapshot.kind
        with pytest.raises(ConfigurationError, match="different protocol kinds"):
            merge_conciliator_stats(sifting, snapshot)

    def test_merge_tolerates_a_missing_kind(self):
        # Stats deserialized from older sweeps carry no kind; they merge
        # with anything and adopt the known kind.
        from dataclasses import replace

        first = self._shard(1)
        unkinded = replace(self._shard(2), kind="")
        merged = merge_conciliator_stats(first, unkinded)
        assert merged.kind == first.kind

    def test_merge_consensus_stats(self):
        def shard(seed):
            return run_consensus_trials(
                lambda: register_consensus(3, value_domain=range(3)),
                list(range(3)),
                trials=4,
                master_seed=seed,
            )

        first, second = shard(10), shard(11)
        merged = merge_consensus_stats(first, second)
        assert merged.trials == 8
        assert merged.all_safe == (first.all_safe and second.all_safe)
        assert merged.phases.count == first.phases.count + second.phases.count
        with pytest.raises(ConfigurationError, match="different n"):
            merge_consensus_stats(
                first,
                run_consensus_trials(
                    lambda: register_consensus(4, value_domain=range(4)),
                    list(range(4)),
                    trials=2,
                    master_seed=1,
                ),
            )


class TestFisherExact:
    """Pins fisher_exact_two_sided against scipy-checked reference values."""

    def test_known_value_matches_scipy_reference(self):
        # scipy.stats.fisher_exact([[1, 9], [11, 3]]) == 0.0027594561852200832
        p = fisher_exact_two_sided(1, 9, 11, 3)
        assert p == pytest.approx(0.002759456185220094, rel=1e-12)

    def test_balanced_table_is_not_significant(self):
        assert fisher_exact_two_sided(5, 5, 5, 5) == pytest.approx(1.0)

    def test_extreme_table_is_significant(self):
        assert fisher_exact_two_sided(10, 0, 0, 10) < 1e-4

    def test_symmetry_under_row_and_column_swaps(self):
        reference = fisher_exact_two_sided(3, 7, 9, 2)
        assert fisher_exact_two_sided(9, 2, 3, 7) == pytest.approx(reference)
        assert fisher_exact_two_sided(7, 3, 2, 9) == pytest.approx(reference)

    def test_degenerate_margins_return_one(self):
        assert fisher_exact_two_sided(0, 0, 4, 6) == 1.0
        assert fisher_exact_two_sided(3, 0, 5, 0) == 1.0
        assert fisher_exact_two_sided(0, 3, 0, 5) == 1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            fisher_exact_two_sided(-1, 2, 3, 4)

    def test_never_exceeds_one(self):
        for table in [(1, 1, 1, 1), (2, 0, 1, 1), (0, 5, 1, 4)]:
            assert fisher_exact_two_sided(*table) <= 1.0


class TestBackendDispatch:
    """The backend= parameter routes or refuses, never silently ignores."""

    def test_unknown_backend_rejected_everywhere(self):
        for runner in (run_conciliator_trials, decay_series):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                runner(
                    lambda: SiftingConciliator(2), [0, 1], trials=2,
                    backend="gpu",
                )

    def test_vectorized_rejects_allow_partial(self):
        pytest.importorskip("numpy")
        with pytest.raises(ConfigurationError, match="allow_partial"):
            run_conciliator_trials(
                lambda: SiftingConciliator(2), [0, 1], trials=2,
                backend="vectorized", allow_partial=True,
            )

    def test_vectorized_rejects_metrics(self):
        pytest.importorskip("numpy")
        from repro.obs.metrics import MetricsRegistry

        with pytest.raises(ConfigurationError, match="metrics"):
            run_conciliator_trials(
                lambda: SiftingConciliator(2), [0, 1], trials=2,
                backend="vectorized", metrics=MetricsRegistry(),
            )

    def test_consensus_rejects_vectorized(self):
        pytest.importorskip("numpy")
        with pytest.raises(ConfigurationError, match="conciliator"):
            run_consensus_trials(
                lambda: register_consensus(2, value_domain=range(2)),
                [0, 1],
                trials=2,
                backend="vectorized",
            )

    def test_generator_backend_is_the_default(self):
        explicit = run_conciliator_trials(
            lambda: SiftingConciliator(2), [0, 1], trials=3, master_seed=4,
            backend="generator", workers=1,
        )
        implicit = run_conciliator_trials(
            lambda: SiftingConciliator(2), [0, 1], trials=3, master_seed=4,
            workers=1,
        )
        assert explicit == implicit
