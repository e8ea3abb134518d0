"""Session-level model axes (:func:`model_overrides`) reach every sweep.

``repro experiments --register-model/--adversary`` re-models the paper
tables through these overrides, so each trial runner must resolve them
exactly as it resolves its explicit ``register_model=``/``adversary=``
arguments: an override changes results as the argument would, an explicit
argument beats the session value, an atomic register model is no axis at
all, and the vectorized backends refuse an active axis.
"""

import json

import pytest

from repro.analysis.experiments import (
    decay_series,
    model_overrides,
    run_conciliator_trials,
    run_consensus_trials,
)
from repro.core.consensus import register_consensus
from repro.core.sifting_conciliator import SiftingConciliator
from repro.errors import ConfigurationError
from repro.memory.semantics import RegisterModel
from repro.obs.metrics import MetricsRegistry
from repro.runtime.adaptive import AdaptiveSpec
from repro.runtime.adversary import AdversarySpec
from repro.runtime.vectorized import numpy_available

N = 8
INPUTS = list(range(N))
SWEEP = dict(trials=30, master_seed=3, workers=1)
SIFT_KILLER = AdaptiveSpec("sift-killer", 1)
REGULAR = RegisterModel("regular", seed=5, p_old=1.0)


def sifting():
    return SiftingConciliator(N)


def consensus():
    return register_consensus(N, value_domain=INPUTS)


def run_key(journal):
    with open(journal, encoding="ascii") as handle:
        return json.loads(handle.readline())["run_key"]


@pytest.mark.parametrize("axis", [
    {"adversary": SIFT_KILLER},
    {"register_model": REGULAR},
])
def test_override_acts_as_the_explicit_argument(axis):
    plain_conciliator = run_conciliator_trials(sifting, INPUTS, **SWEEP)
    plain_consensus = run_consensus_trials(consensus, INPUTS, **SWEEP)
    explicit_conciliator = run_conciliator_trials(
        sifting, INPUTS, **SWEEP, **axis)
    explicit_consensus = run_consensus_trials(
        consensus, INPUTS, **SWEEP, **axis)
    with model_overrides(**axis):
        assert run_conciliator_trials(
            sifting, INPUTS, **SWEEP) == explicit_conciliator
        assert run_consensus_trials(
            consensus, INPUTS, **SWEEP) == explicit_consensus
    assert explicit_conciliator != plain_conciliator
    assert explicit_consensus != plain_consensus


@pytest.mark.parametrize("axis", [
    {"adversary": SIFT_KILLER},
    {"register_model": REGULAR},
])
def test_decay_runs_the_executions_of_the_overridden_conciliator_sweep(axis):
    """``decay_series`` takes no model arguments, so compare what it ran:
    under the override its folded simulator metrics equal those of the
    conciliator sweep given the axis explicitly (the same seeded
    executions), and its series moves off the unmodelled one."""
    explicit = MetricsRegistry()
    run_conciliator_trials(sifting, INPUTS, metrics=explicit, **SWEEP,
                           **axis)
    overridden = MetricsRegistry()
    with model_overrides(**axis):
        series = decay_series(sifting, INPUTS, metrics=overridden, **SWEEP)
    seen = overridden.to_json()
    del seen["histograms"]["conciliator.rounds"]
    assert seen == explicit.to_json()
    assert series != decay_series(sifting, INPUTS, **SWEEP)


def test_explicit_argument_beats_the_session_value():
    late = AdversarySpec("late", seed=9)
    safe = RegisterModel("safe", seed=2)
    expected_conciliator = run_conciliator_trials(
        sifting, INPUTS, adversary=late, register_model=safe, **SWEEP)
    expected_consensus = run_consensus_trials(
        consensus, INPUTS, adversary=late, register_model=safe, **SWEEP)
    with model_overrides(register_model=REGULAR, adversary=SIFT_KILLER):
        assert run_conciliator_trials(
            sifting, INPUTS, adversary=late, register_model=safe,
            **SWEEP) == expected_conciliator
        assert run_consensus_trials(
            consensus, INPUTS, adversary=late, register_model=safe,
            **SWEEP) == expected_consensus


def test_atomic_resolves_to_no_axis(tmp_path):
    plain_key = tmp_path / "plain.journal"
    atomic_key = tmp_path / "atomic.journal"
    plain_decay_key = tmp_path / "plain-decay.journal"
    atomic_decay_key = tmp_path / "atomic-decay.journal"
    plain = run_conciliator_trials(sifting, INPUTS, **SWEEP,
                                   checkpoint_path=str(plain_key))
    plain_decay = decay_series(sifting, INPUTS, **SWEEP,
                               checkpoint_path=str(plain_decay_key))
    with model_overrides(register_model=RegisterModel("atomic", seed=7)):
        assert run_conciliator_trials(
            sifting, INPUTS, **SWEEP,
            checkpoint_path=str(atomic_key)) == plain
        assert decay_series(
            sifting, INPUTS, **SWEEP,
            checkpoint_path=str(atomic_decay_key)) == plain_decay
    assert run_key(atomic_key) == run_key(plain_key)
    assert run_key(atomic_decay_key) == run_key(plain_decay_key)
    assert "model=" not in run_key(plain_key)


def test_a_block_sets_both_axes_and_restores_them_on_exit():
    plain = run_conciliator_trials(sifting, INPUTS, **SWEEP)
    killed = run_conciliator_trials(sifting, INPUTS, adversary=SIFT_KILLER,
                                    **SWEEP)
    regular = run_conciliator_trials(sifting, INPUTS, register_model=REGULAR,
                                     **SWEEP)
    with model_overrides(adversary=SIFT_KILLER):
        with model_overrides(register_model=REGULAR):
            # The inner block names no adversary, so it runs none.
            assert run_conciliator_trials(sifting, INPUTS, **SWEEP) == regular
        assert run_conciliator_trials(sifting, INPUTS, **SWEEP) == killed
    assert run_conciliator_trials(sifting, INPUTS, **SWEEP) == plain


@pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
@pytest.mark.parametrize("backend", ["vectorized", "vectorized-oracle"])
@pytest.mark.parametrize("axis", [
    {"adversary": SIFT_KILLER},
    {"register_model": REGULAR},
])
def test_vectorized_backends_refuse_an_active_axis(backend, axis):
    family = dict(SWEEP, schedule_family="permuted")
    with model_overrides(**axis):
        with pytest.raises(ConfigurationError, match=backend):
            run_conciliator_trials(sifting, INPUTS, backend=backend, **family)
        with pytest.raises(ConfigurationError, match=backend):
            decay_series(sifting, INPUTS, backend=backend, **family)
