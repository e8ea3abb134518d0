"""Unit tests for the vectorized mass-trial backend.

The end-to-end equivalence contracts live in
``tests/property/test_backend_equivalence.py``; this module pins the
configuration surface — the support matrix, every refusal path's
:class:`ConfigurationError`, the sweep container's invariants — and the
degradation story when NumPy is absent (via a subprocess whose import
machinery hides it).
"""

import subprocess
import sys
import textwrap

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


_NO_NUMPY_SCRIPT = textwrap.dedent(
    """
    import sys

    # Poison the import: `import numpy` now raises ImportError, exactly as
    # on a machine without the optional dependency.
    sys.modules["numpy"] = None

    from repro.analysis.experiments import run_conciliator_trials
    from repro.errors import ConfigurationError
    from repro.core.sifting_conciliator import SiftingConciliator
    from repro.runtime.vectorized import numpy_available

    assert not numpy_available()

    factory = lambda: SiftingConciliator(3)

    # The default backend must be entirely unaffected.
    stats = run_conciliator_trials(
        factory, [0, 1, 2], trials=3, master_seed=1, workers=1
    )
    assert stats.trials == 3

    # The vectorized backend must fail loudly, with an install hint.
    try:
        run_conciliator_trials(
            factory, [0, 1, 2], trials=3, master_seed=1,
            backend="vectorized",
        )
    except ConfigurationError as error:
        assert "pip install numpy" in str(error), str(error)
        assert "generator backend" in str(error), str(error)
    else:
        raise AssertionError("vectorized backend ran without numpy")

    # The bench suite drops vectorized cases from the default selection
    # (with a log line) but honours explicit requests, which then fail
    # loudly with the install hint.
    from repro.obs.bench import VECTORIZED_SUITE_NAMES, _select_cases, run_bench_suite

    messages = []
    selected = _select_cases(None, messages.append)
    assert not set(selected) & set(VECTORIZED_SUITE_NAMES), selected
    assert any("skipping" in message for message in messages), messages
    try:
        run_bench_suite(quick=True, suites=["vectorized-sifting"])
    except ConfigurationError as error:
        assert "pip install numpy" in str(error), str(error)
    else:
        raise AssertionError("vectorized bench case ran without numpy")

    print("NO-NUMPY-OK")
    """
)


def test_missing_numpy_degrades_cleanly(tmp_path):
    """Without NumPy the vectorized backend raises ConfigurationError with
    an install hint, and the generator backend keeps working.

    Run in a subprocess so the poisoned ``sys.modules`` cannot leak into
    other tests (and so an already-imported numpy in this process does not
    mask the degradation path)."""
    script = tmp_path / "no_numpy_probe.py"
    script.write_text(_NO_NUMPY_SCRIPT)
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "NO-NUMPY-OK" in result.stdout


_BROKEN_NUMPY_SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import importlib.util
    import sys


    class BrokenNumpy(importlib.abc.MetaPathFinder, importlib.abc.Loader):
        # An installed NumPy whose import raises something other than
        # ImportError.
        def find_spec(self, name, path, target=None):
            if name == "numpy":
                return importlib.util.spec_from_loader(name, self)
            return None

        def create_module(self, spec):
            return None

        def exec_module(self, module):
            raise RuntimeError("numpy is broken")


    sys.meta_path.insert(0, BrokenNumpy())
    sys.modules.pop("numpy", None)

    from repro.analysis.experiments import run_conciliator_trials
    from repro.core.sifting_conciliator import SiftingConciliator
    from repro.runtime.vectorized import numpy_available


    def fails_loudly(call):
        try:
            call()
        except RuntimeError as error:
            assert "numpy is broken" in str(error), error
        else:
            raise AssertionError("a broken numpy passed for an absent one")


    fails_loudly(numpy_available)
    fails_loudly(lambda: run_conciliator_trials(
        lambda: SiftingConciliator(3), [0, 1, 2], trials=3,
        backend="vectorized",
    ))
    print("BROKEN-NUMPY-OK")
    """
)


def test_broken_numpy_fails_loudly(tmp_path):
    """A NumPy that is installed but fails to import with anything other
    than ImportError propagates its error from the availability probe and
    from the backend, instead of reading as "not installed"."""
    script = tmp_path / "broken_numpy_probe.py"
    script.write_text(_BROKEN_NUMPY_SCRIPT)
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "BROKEN-NUMPY-OK" in result.stdout
