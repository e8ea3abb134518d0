"""Survivor-decay experiments: the engines of Lemmas 1 and 3/4.

The measured mean number of *excess* personae after each round must sit at
or below the paper's analytic bound (up to sampling slack).  These are the
integration-level counterparts of experiments E1 and E3.
"""

import pytest

from repro.analysis.experiments import decay_series
from repro.analysis.theory import sifting_decay_bound, snapshot_decay_bound
from repro.core.probabilities import sift_x
from repro.core.rounds import sifting_switch_round
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator

SLACK = 1.35  # multiplicative allowance for sampling noise
TRIALS = 40


class TestSnapshotDecay:
    @pytest.mark.parametrize("n", [16, 64])
    def test_excess_below_lemma1_bound(self, n):
        series = decay_series(
            lambda: SnapshotConciliator(n),
            list(range(n)),
            trials=TRIALS,
            master_seed=501,
        )
        bounds = snapshot_decay_bound(n, len(series))
        for round_index, survivors in enumerate(series):
            excess = survivors - 1.0
            # X must sit under the analytic bound (which can be < 1 late;
            # excess can't go below 0, so compare against max(bound, small)).
            allowance = SLACK * bounds[round_index] + 0.25
            assert excess <= allowance, (n, round_index)

    def test_first_round_logarithmic_collapse(self):
        # Lemma 1: E[Y_1] <= H_{Y_0} = ln(n) + O(1): one round crushes n
        # personae to a handful.
        n = 128
        series = decay_series(
            lambda: SnapshotConciliator(n),
            list(range(n)),
            trials=TRIALS,
            master_seed=502,
        )
        import math

        assert series[0] <= SLACK * (math.log(n) + 1)

    def test_max_register_variant_decays_similarly(self):
        n = 64
        snap = decay_series(
            lambda: SnapshotConciliator(n),
            list(range(n)), trials=TRIALS, master_seed=503,
        )
        maxreg = decay_series(
            lambda: SnapshotConciliator(n, use_max_registers=True),
            list(range(n)), trials=TRIALS, master_seed=503,
        )
        # Same length and similar first-round collapse (footnote 1 / E11).
        assert len(snap) == len(maxreg)
        assert abs(snap[0] - maxreg[0]) <= 2.5


class TestSiftingDecay:
    @pytest.mark.parametrize("n", [32, 128])
    def test_excess_below_lemma3_bound(self, n):
        series = decay_series(
            lambda: SiftingConciliator(n),
            list(range(n)),
            trials=TRIALS,
            master_seed=504,
        )
        bounds = sifting_decay_bound(n, len(series))
        for round_index, survivors in enumerate(series):
            excess = survivors - 1.0
            allowance = SLACK * bounds[round_index] + 0.3
            assert excess <= allowance, (n, round_index)

    def test_first_round_sqrt_collapse(self):
        # Lemma 3 base step: E[X_1] <= 2 sqrt(n-1).
        n = 256
        series = decay_series(
            lambda: SiftingConciliator(n),
            list(range(n)), trials=TRIALS, master_seed=505,
        )
        assert series[0] - 1 <= SLACK * sift_x(1, n)

    def test_under_eight_at_switch(self):
        # Lemma 3's punchline: expected excess < 8 after the tuned prefix.
        n = 256
        switch = sifting_switch_round(n)
        series = decay_series(
            lambda: SiftingConciliator(n),
            list(range(n)), trials=TRIALS, master_seed=506,
        )
        assert series[switch - 1] - 1 <= 8 * SLACK

    def test_tail_rounds_keep_shrinking(self):
        # Lemma 4: expectation contracts by 3/4 per tail round; over the
        # whole tail the mean must not grow.
        n = 64
        switch = sifting_switch_round(n)
        series = decay_series(
            lambda: SiftingConciliator(n),
            list(range(n)), trials=TRIALS, master_seed=507,
        )
        tail = series[switch:]
        assert tail[-1] <= tail[0] + 1e-9


class TestCrashHalfDecay:
    def test_runs_the_partial_executions_of_the_conciliator_sweep(self):
        """Under ``crash-half`` the victims never finish, so decay runs
        partial executions with the conciliator runner's default: the
        same seeded executions, hence the same folded simulator metrics
        (decay adds only its rounds histogram)."""
        from repro.analysis.experiments import run_conciliator_trials
        from repro.obs.metrics import MetricsRegistry

        n = 8
        sweep = dict(schedule_family="crash-half", trials=10,
                     master_seed=17, workers=1)
        decay_metrics = MetricsRegistry()
        series = decay_series(lambda: SiftingConciliator(n), list(range(n)),
                              metrics=decay_metrics, **sweep)
        conciliator_metrics = MetricsRegistry()
        run_conciliator_trials(lambda: SiftingConciliator(n), list(range(n)),
                               metrics=conciliator_metrics, **sweep)
        seen = decay_metrics.to_json()
        del seen["histograms"]["conciliator.rounds"]
        assert seen == conciliator_metrics.to_json()
        assert series and all(1.0 <= survivors <= n for survivors in series)
