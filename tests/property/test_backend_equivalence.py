"""Differential property tests: vectorized backend vs the generator oracle.

The generator :mod:`repro.runtime.simulator` stays the semantic oracle for
the NumPy mass-trial backend, through two complementary contracts:

- **Oracle mode** (``backend="vectorized-oracle"``) replays the generator's
  exact per-trial seed streams through the batched kernels, so per-trial
  decision vectors, survivor series, step counts, and the aggregated stats
  object must be **bit-identical** to the generator sweep.  This is checked
  on fuzzed ``(algorithm, family, n, trials, master_seed)`` configurations,
  including the non-lockstep ``random``/``blocks`` families that only the
  oracle mode supports.
- **Fast mode** (``backend="vectorized"``) draws from per-block streams, so
  per-trial outcomes differ from the generator's; the two backends sample
  the *same distribution*, which is checked statistically (see
  :class:`TestStatisticalEquivalence` for the exact test and its power).

Fast-mode determinism contracts are also pinned: results are a pure
function of ``(master_seed, absolute trial index)`` — invariant to the
total trial count (prefix property, including across the 4096-trial block
boundary) and to worker/chunk sharding.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

pytest.importorskip("numpy")

from repro import catalog
from repro.analysis.experiments import (
    decay_series,
    run_conciliator_trials,
    trial_seed_tree,
)
from repro.analysis.stats import fisher_exact_two_sided
from repro.core.conciliator import run_conciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.runtime.parallel import supports_fork
from repro.runtime.vectorized import (
    run_vectorized_sweep,
    supported_families,
)
from repro.workloads.schedules import make_schedule

needs_fork = pytest.mark.skipif(
    not supports_fork(), reason="sharded execution requires the fork start method"
)

#: Every catalog algorithm with a vectorized kernel (name -> factory).
FACTORIES = {
    name: catalog.get(name).factory for name in catalog.names("kernel")
}

#: Catalog name -> kernel algorithm (for supported_families lookups).
ALGORITHMS = {name: catalog.get(name).kernel for name in FACTORIES}

EQUIVALENCE_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def generator_trial(factory, inputs, family, master_seed, trial):
    """One generator-backend trial, exactly as the sweep runners drive it."""
    n = len(inputs)
    conciliator = factory()
    seeds = trial_seed_tree(master_seed, trial)
    schedule = make_schedule(family, n, seeds.child("schedule"))
    result = run_conciliator(conciliator, inputs, schedule, seeds)
    decisions = tuple(result.outputs[pid] for pid in range(n))
    return decisions, tuple(conciliator.survivor_series()), result


@st.composite
def oracle_cases(draw):
    kind = draw(st.sampled_from(sorted(FACTORIES)))
    family = draw(
        st.sampled_from(supported_families(ALGORITHMS[kind], oracle=True))
    )
    n = draw(st.integers(min_value=2, max_value=6))
    trials = draw(st.integers(min_value=1, max_value=6))
    master_seed = draw(st.integers(min_value=0, max_value=2**32))
    return kind, family, n, trials, master_seed


class TestOracleBitIdentity:
    """Oracle mode must reproduce the generator trial-for-trial."""

    @EQUIVALENCE_SETTINGS
    @given(case=oracle_cases())
    def test_decisions_survivors_steps_bit_identical(self, case):
        kind, family, n, trials, master_seed = case
        inputs = [f"v{i % 3}" for i in range(n)]
        factory = lambda: FACTORIES[kind](n)
        sweep = run_vectorized_sweep(
            factory, inputs, schedule_family=family, trials=trials,
            master_seed=master_seed, oracle=True,
            collect_decisions=True, collect_survivors=True,
        )
        for trial in range(trials):
            decisions, survivors, result = generator_trial(
                factory, inputs, family, master_seed, trial
            )
            assert sweep.decisions[trial] == decisions
            if ALGORITHMS[kind] != "cil":
                assert sweep.survivor_series[trial] == survivors
            assert sweep.individual_steps[trial] == float(
                result.max_individual_steps
            )
            assert sweep.total_steps[trial] == float(result.total_steps)

    @EQUIVALENCE_SETTINGS
    @given(case=oracle_cases())
    def test_runner_stats_bit_identical(self, case):
        """`backend="vectorized-oracle"` through the public sweep runner
        produces the *same frozen stats object* as the generator backend —
        plain `==`, every float bit-for-bit, like the parallel contract."""
        kind, family, n, trials, master_seed = case
        inputs = list(range(n))
        factory = lambda: FACTORIES[kind](n)
        kwargs = dict(
            schedule_family=family, trials=trials, master_seed=master_seed,
            workers=1,
        )
        generator = run_conciliator_trials(factory, inputs, **kwargs)
        oracle = run_conciliator_trials(
            factory, inputs, backend="vectorized-oracle", **kwargs
        )
        assert oracle == generator

    def test_decay_series_bit_identical(self):
        for kind, family in (("sifting", "permuted"),
                             ("snapshot", "interleaved")):
            factory = lambda: FACTORIES[kind](6)
            kwargs = dict(
                schedule_family=family, trials=9, master_seed=13, workers=1,
            )
            generator = decay_series(factory, list(range(6)), **kwargs)
            oracle = decay_series(
                factory, list(range(6)), backend="vectorized-oracle", **kwargs
            )
            assert oracle == generator


class TestFastModeDeterminism:
    """Fast mode: pure function of (master_seed, absolute trial index)."""

    @EQUIVALENCE_SETTINGS
    @given(
        kind=st.sampled_from(["sifting", "snapshot", "doubling-cil"]),
        n=st.integers(min_value=2, max_value=6),
        small=st.integers(min_value=1, max_value=20),
        extra=st.integers(min_value=1, max_value=30),
        master_seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_trial_count_prefix(self, kind, n, small, extra, master_seed):
        family = "permuted"
        factory = lambda: FACTORIES[kind](n)
        kwargs = dict(
            schedule_family=family, master_seed=master_seed,
            collect_decisions=True,
        )
        head = run_vectorized_sweep(
            factory, list(range(n)), trials=small, **kwargs
        )
        full = run_vectorized_sweep(
            factory, list(range(n)), trials=small + extra, **kwargs
        )
        assert full.decisions[:small] == head.decisions
        assert full.agreement[:small] == head.agreement
        assert full.individual_steps[:small] == head.individual_steps

    def test_prefix_across_block_boundary(self):
        """Trials 0..4089 must not change when the sweep grows past the
        4096-trial block boundary (the partial final block is a prefix of
        the full block's C-order draws)."""
        from repro.runtime.vectorized import VECTORIZED_BLOCK_TRIALS

        boundary = VECTORIZED_BLOCK_TRIALS
        factory = lambda: SiftingConciliator(4)
        kwargs = dict(
            schedule_family="permuted", master_seed=7, collect_decisions=True,
        )
        head = run_vectorized_sweep(
            factory, list(range(4)), trials=boundary - 6, **kwargs
        )
        full = run_vectorized_sweep(
            factory, list(range(4)), trials=boundary + 4, **kwargs
        )
        assert full.decisions[:boundary - 6] == head.decisions
        assert full.agreement[:boundary - 6] == head.agreement

    @needs_fork
    def test_worker_invariance(self):
        factory = lambda: SnapshotConciliator(5)
        kwargs = dict(
            schedule_family="interleaved", trials=9000, master_seed=3,
        )
        serial = run_vectorized_sweep(
            factory, list(range(5)), workers=1, **kwargs
        )
        sharded = run_vectorized_sweep(
            factory, list(range(5)), workers=2, chunk_size=1, **kwargs
        )
        assert sharded == serial

    @needs_fork
    def test_oracle_worker_invariance_through_runner(self):
        """The ISSUE's pinned grid: the differential suite must hold under
        workers=1 and workers=2 alike."""
        factory = lambda: SiftingConciliator(5)
        kwargs = dict(
            schedule_family="permuted", trials=20, master_seed=11,
        )
        generator = run_conciliator_trials(
            factory, list(range(5)), workers=1, **kwargs
        )
        for workers in (1, 2):
            oracle = run_conciliator_trials(
                factory, list(range(5)), workers=workers,
                backend="vectorized-oracle", **kwargs
            )
            assert oracle == generator


class TestStatisticalEquivalence:
    """Fast mode vs generator: same agreement distribution.

    Fast mode deliberately does not replay generator streams, so per-trial
    outcomes differ; the contract is that both backends sample the same
    Bernoulli agreement probability for a fixed (algorithm, family, n).
    Each test runs both backends on fresh seeds and applies the two-sided
    Fisher exact test to the 2x2 table (agreements, disagreements) x
    (generator, vectorized).

    **Significance**: alpha = 1e-3.  All seeds are fixed, so each test is
    fully deterministic — a pass is a pass forever; the alpha describes the
    a-priori false-alarm rate of the *design* (the chance a true-null seed
    pair would have been rejected), not a rerun flake rate.

    **Power**: with 300 generator trials against 3000 vectorized trials,
    the test has ~80% power at alpha=1e-3 to detect an absolute
    agreement-rate shift of ~0.08 near p=0.9 (sifting/snapshot) and ~0.12
    near p=0.33 (the CIL baseline) — comfortably below the gap any real
    kernel/coin bug produces (miscounted writers, shifted probability
    schedules, or biased permutations move agreement by far more).
    """

    GENERATOR_TRIALS = 300
    VECTORIZED_TRIALS = 3000
    ALPHA = 1e-3

    @pytest.mark.parametrize("kind,family", [
        ("sifting", "permuted"),
        ("snapshot", "interleaved"),
        ("doubling-cil", "permuted"),
    ])
    def test_agreement_rates_indistinguishable(self, kind, family):
        n = 6
        factory = lambda: FACTORIES[kind](n)
        generator = run_conciliator_trials(
            factory, list(range(n)), schedule_family=family,
            trials=self.GENERATOR_TRIALS, master_seed=20120716, workers=1,
        )
        vectorized = run_conciliator_trials(
            factory, list(range(n)), schedule_family=family,
            trials=self.VECTORIZED_TRIALS, master_seed=20120716,
            backend="vectorized",
        )
        p_value = fisher_exact_two_sided(
            generator.agreement_count,
            generator.trials - generator.agreement_count,
            vectorized.agreement_count,
            vectorized.trials - vectorized.agreement_count,
        )
        assert p_value > self.ALPHA, (
            f"{kind}/{family}: generator agreement "
            f"{generator.agreement_rate:.3f} vs vectorized "
            f"{vectorized.agreement_rate:.3f} (p={p_value:.2e})"
        )
