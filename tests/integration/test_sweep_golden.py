"""Golden pin for the trial-sweep runners: seeded sweeps hash to committed
values.

Every paper table goes through :func:`run_conciliator_trials`,
:func:`run_consensus_trials` or :func:`decay_series`, so any rewrite of
those runners must leave what a seeded sweep returns bit-identical.  Each
case runs one small sweep (n = 8) and pins three things:

- a hash of the returned statistics (or, for decay, the mean survivor
  series);
- a hash of the folded metrics snapshot, when the case collects metrics;
- the run key, read from the header of the checkpoint journal the sweep
  writes, so a journal minted by an older build stays resumable.

The grid covers the three conciliators, register consensus and the two
decay curves; the ``random``, ``permuted`` and ``crash-half`` families
(the last for conciliator and consensus only, since a decay sweep has no
partial-execution knob); no model axis, a regular register model, a late
ladder adversary and the adaptive ``sift-killer``; metrics on and off; and
the generator, vectorized and vectorized-oracle backends where each
applies.  Decay sweeps take no explicit model arguments, so their model
axes are pinned elsewhere (``tests/unit/test_model_overrides.py``).

Regenerate the file (only for a deliberate, documented behaviour change)
with::

    PYTHONPATH=src python tests/integration/test_sweep_golden.py \\
        > tests/integration/sweep_golden.json
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    decay_series,
    run_conciliator_trials,
    run_consensus_trials,
)
from repro.core.cil_embedded import CILEmbeddedConciliator
from repro.core.consensus import register_consensus
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.memory.semantics import RegisterModel
from repro.obs.metrics import MetricsRegistry
from repro.runtime.adaptive import AdaptiveSpec
from repro.runtime.adversary import AdversarySpec
from repro.runtime.vectorized import numpy_available

GOLDEN = Path(__file__).with_name("sweep_golden.json")

N = 8
TRIALS = 10
MASTER_SEED = 2012

PROTOCOLS = {
    "sifting": lambda: SiftingConciliator(N),
    "snapshot": lambda: SnapshotConciliator(N),
    "cil-embedded": lambda: CILEmbeddedConciliator(N),
    "register-consensus": lambda: register_consensus(
        N, value_domain=list(range(N))),
}
RUNNERS = {
    "conciliator": (run_conciliator_trials,
                    ("sifting", "snapshot", "cil-embedded")),
    "consensus": (run_consensus_trials, ("register-consensus",)),
    "decay": (decay_series, ("sifting", "snapshot")),
}
AXES = {
    "none": {},
    "regular": {"register_model": RegisterModel("regular", seed=5)},
    "late": {"adversary": AdversarySpec("late", seed=9)},
    "sift-killer": {"adversary": AdaptiveSpec("sift-killer", 4)},
}
VECTOR_FAMILIES = {"vectorized": ("permuted",),
                   "vectorized-oracle": ("random", "permuted")}


def _cases():
    """``runner/protocol/family/axis/metrics/backend`` ids, in a fixed order."""
    cases = []
    for runner, (_, protocols) in RUNNERS.items():
        families = ("random", "permuted")
        if runner != "decay":
            families += ("crash-half",)
        for protocol in protocols:
            cases += [(runner, protocol, family, "none", metrics, "generator")
                      for family in families for metrics in ("off", "on")]
            if runner != "decay":
                cases += [(runner, protocol, "random", axis, metrics,
                           "generator")
                          for axis in ("regular", "late", "sift-killer")
                          for metrics in ("off", "on")]
        if runner != "decay":
            cases.append((runner, protocols[0], "crash-half", "regular",
                          "on", "generator"))
        if runner != "consensus":
            cases += [(runner, protocol, family, "none", "off", backend)
                      for protocol in ("sifting", "snapshot")
                      for backend, backend_families in VECTOR_FAMILIES.items()
                      for family in backend_families]
    return ["/".join(case) for case in cases]


CASES = _cases()


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(case, directory):
    """Run one case; return its pinned record."""
    runner, protocol, family, axis, metrics, backend = case.split("/")
    run, _ = RUNNERS[runner]
    registry = MetricsRegistry() if metrics == "on" else None
    journal = Path(directory) / f"{case.replace('/', '_')}.journal"
    kwargs = dict(AXES[axis])
    if registry is not None:
        kwargs["metrics"] = registry
    if backend != "generator":
        kwargs["backend"] = backend
    result = run(PROTOCOLS[protocol], list(range(N)),
                 schedule_family=family, trials=TRIALS,
                 master_seed=MASTER_SEED, workers=1,
                 checkpoint_path=str(journal), **kwargs)
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    with open(journal, encoding="ascii") as handle:
        header = json.loads(handle.readline())
    return {
        "result": _digest(result),
        "metrics": None if registry is None else _digest(registry.to_json()),
        "run_key": header["run_key"],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_sweep_is_unchanged(case, golden, tmp_path):
    if case.endswith("/vectorized") or case.endswith("/vectorized-oracle"):
        if not numpy_available():
            pytest.skip("the vectorized backends need NumPy")
    assert run_case(case, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps({case: run_case(case, scratch) for case in CASES},
                         indent=1, sort_keys=True))
