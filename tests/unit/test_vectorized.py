"""Unit tests for the vectorized mass-trial backend.

The end-to-end equivalence contracts live in
``tests/property/test_backend_equivalence.py``; this module pins the
configuration surface — the support matrix, every refusal path's
:class:`ConfigurationError` and the sweep container's invariants.  The
degradation story when NumPy is absent or broken lives in
``tests/unit/test_numpy_state.py``, which needs no NumPy itself.
"""

import pytest

from repro.baselines.doubling_cil import DoublingCILConciliator
from repro.errors import ConfigurationError
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.runtime.vectorized import (
    BACKENDS,
    VECTOR_BACKENDS,
    VECTORIZED_BLOCK_TRIALS,
    numpy_available,
    supported_families,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized backend requires numpy"
)

# Imported lazily above the guard would defeat the skip; safe here because
# pytestmark has already vouched for numpy.
from repro.runtime.vectorized import run_vectorized_sweep  # noqa: E402


class TestSupportMatrix:
    def test_backend_names(self):
        assert BACKENDS == ("generator", "vectorized", "vectorized-oracle")
        assert VECTOR_BACKENDS == ("vectorized", "vectorized-oracle")
        assert set(VECTOR_BACKENDS) < set(BACKENDS)

    def test_block_size_is_positive_power_of_two(self):
        assert VECTORIZED_BLOCK_TRIALS > 0
        assert VECTORIZED_BLOCK_TRIALS & (VECTORIZED_BLOCK_TRIALS - 1) == 0

    def test_cil_restricted_to_single_slot_families(self):
        for oracle in (False, True):
            assert supported_families("cil", oracle) == (
                "round-robin", "reversed", "permuted",
            )

    def test_fixed_sequence_kernels_gain_families_in_oracle_mode(self):
        for algorithm in ("sifting", "snapshot"):
            fast = supported_families(algorithm, oracle=False)
            oracle = supported_families(algorithm, oracle=True)
            assert "interleaved" in fast and "front-runner" in fast
            assert set(fast) < set(oracle)
            assert {"random", "blocks"} <= set(oracle) - set(fast)


class TestRefusals:
    def run(self, factory, n=3, **kwargs):
        kwargs.setdefault("trials", 2)
        return run_vectorized_sweep(factory, list(range(n)), **kwargs)

    def test_anonymous_sifting_refused(self):
        with pytest.raises(ConfigurationError, match="anonymous"):
            self.run(lambda: SiftingConciliator(3, anonymous=True))

    def test_unsupported_conciliator_type_refused(self):
        with pytest.raises(ConfigurationError, match="generator backend"):
            self.run(lambda: object())

    def test_snapshot_priority_overflow_refused(self):
        with pytest.raises(ConfigurationError, match="overflows"):
            self.run(lambda: SnapshotConciliator(3, priority_range=2**62))

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="trials must be >= 1"):
            self.run(lambda: SiftingConciliator(3), trials=0)

    def test_input_count_must_match_n(self):
        with pytest.raises(ConfigurationError, match="4 inputs"):
            self.run(lambda: SiftingConciliator(3), n=4)

    def test_fast_mode_rejects_oracle_only_family_with_hint(self):
        with pytest.raises(
            ConfigurationError, match="vectorized-oracle"
        ) as excinfo:
            self.run(lambda: SiftingConciliator(3), schedule_family="random")
        assert "generator backend" in str(excinfo.value)

    def test_cil_rejects_interleaved_in_both_modes(self):
        for oracle in (False, True):
            with pytest.raises(ConfigurationError, match="not lockstep"):
                self.run(
                    lambda: DoublingCILConciliator(3),
                    schedule_family="interleaved",
                    oracle=oracle,
                )

    def test_decay_series_requires_collect_survivors(self):
        sweep = self.run(lambda: SiftingConciliator(3))
        with pytest.raises(ConfigurationError, match="collect_survivors"):
            sweep.decay_series()


class TestSweepContainer:
    def test_shapes_stats_and_agreement_flags(self):
        trials = 5
        sweep = run_vectorized_sweep(
            lambda: SiftingConciliator(3),
            ["a", "b", "a"],
            schedule_family="permuted",
            trials=trials,
            master_seed=17,
            collect_decisions=True,
            collect_survivors=True,
        )
        assert sweep.n == 3
        assert sweep.trials == trials
        assert len(sweep.agreement) == trials
        assert len(sweep.decisions) == trials
        assert len(sweep.survivor_series) == trials
        for flag, decisions in zip(sweep.agreement, sweep.decisions):
            assert set(decisions) <= {"a", "b"}
            assert flag == (len(set(decisions)) == 1)
        assert sweep.agreement_count == sum(sweep.agreement)
        stats = sweep.stats()
        assert stats.trials == trials
        assert stats.agreement_count == sweep.agreement_count
        assert stats.validity_failures == 0
        assert stats.kind == "sifting-conciliator"

    def test_cil_sweep_records_passes_not_rounds(self):
        sweep = run_vectorized_sweep(
            lambda: DoublingCILConciliator(2),
            [0, 1],
            schedule_family="round-robin",
            trials=3,
            master_seed=5,
            collect_survivors=True,
        )
        # CIL has no per-round survivor notion; the series stays empty and
        # decay folding yields no rounds.
        assert sweep.survivor_series == ((),) * 3
        assert sweep.decay_series() == []
        assert all(steps >= 1 for steps in sweep.individual_steps)

    def test_deterministic_for_fixed_seed(self):
        kwargs = dict(
            schedule_family="interleaved", trials=64, master_seed=99,
            collect_decisions=True,
        )
        first = run_vectorized_sweep(
            lambda: SnapshotConciliator(4), list(range(4)), **kwargs
        )
        second = run_vectorized_sweep(
            lambda: SnapshotConciliator(4), list(range(4)), **kwargs
        )
        assert first == second
