"""The vectorized backend's story when NumPy is absent or broken.

Each probe fakes NumPy's state in a subprocess, so this module imports no
NumPy and runs both with and without it installed.
"""

import subprocess
import sys
import textwrap


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
