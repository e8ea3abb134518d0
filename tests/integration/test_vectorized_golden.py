"""Golden pin for the vectorized backend's fast mode: seeded sweeps hash to
committed values.

The oracle suite (``tests/property/test_backend_equivalence.py``) pins the
kernels to the generator, but it never runs the fast mode's own coin and
order draws.  This file does: every kernel runs under every fast family of
``supported_families(kernel, False)`` at n = 2, 5 and 64, plus one n = 256
shape per kernel.  The n <= 64 cases run one trial past a block boundary,
so the second block is a one-trial partial block.  Each case hashes its
``agreement``, step vectors, ``decisions`` and survivor series.  The hashes
in ``vectorized_golden.json`` were computed before the backend's block loop
was last rewritten, so any drift in what a seeded fast sweep returns fails
here.

A second test runs a smaller grid, in both modes, with the kernel tile
shrunk to one and seven trial-elements, and checks that the outputs equal
those of the default tile: trial rows are independent, so the tile size
must never show in results.

Regenerate the file (only for a deliberate, documented behaviour change)
with::

    PYTHONPATH=src python tests/integration/test_vectorized_golden.py \\
        > tests/integration/vectorized_golden.json
"""

import hashlib
import json
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.baselines.doubling_cil import DoublingCILConciliator  # noqa: E402
from repro.core.sifting_conciliator import SiftingConciliator  # noqa: E402
from repro.core.snapshot_conciliator import SnapshotConciliator  # noqa: E402
from repro.runtime import vectorized  # noqa: E402
from repro.runtime.vectorized import (  # noqa: E402
    VECTORIZED_BLOCK_TRIALS,
    run_vectorized_sweep,
    supported_families,
)

GOLDEN = Path(__file__).with_name("vectorized_golden.json")

#: Kernel name -> conciliator class.
KERNELS = {
    "sifting": SiftingConciliator,
    "snapshot": SnapshotConciliator,
    "cil": DoublingCILConciliator,
}
SIZES = (2, 5, 64)
#: One n = 256 shape per kernel: the families and sizes of the
#: ``mass-trials`` benchmark.
LARGE = {"sifting": "permuted", "snapshot": "interleaved", "cil": "permuted"}
LARGE_TRIALS = 300


def case_ids():
    cases = [f"{kernel}/n{n}/{family}"
             for kernel in KERNELS
             for n in SIZES
             for family in supported_families(kernel, False)]
    cases += [f"{kernel}/n256/{family}" for kernel, family in LARGE.items()]
    return cases


#: Trials per tile-invariance case, by n: enough for several default tiles
#: at n = 2 and several blocks in oracle mode.
TILE_TRIALS = {2: 300, 5: 40, 64: 12}


def tile_case_ids():
    return [f"{mode}/{kernel}/n{n}/{family}"
            for mode in ("fast", "oracle")
            for kernel in KERNELS
            for n in TILE_TRIALS
            for family in supported_families(kernel, mode == "oracle")]


def sweep_case(case, trials=None, oracle=False):
    kernel, size, family = case.split("/")
    n = int(size[1:])
    if trials is None:
        trials = LARGE_TRIALS if n == 256 else VECTORIZED_BLOCK_TRIALS + 1
    seed = 1000 * n + 10 * sorted(KERNELS).index(kernel) + len(family)
    return run_vectorized_sweep(
        lambda: KERNELS[kernel](n),
        list(range(n)),
        schedule_family=family,
        trials=trials,
        master_seed=seed,
        oracle=oracle,
        workers=1,
        collect_decisions=True,
        collect_survivors=True,
    )


def digest(sweep):
    observed = (
        sweep.agreement,
        sweep.individual_steps,
        sweep.total_steps,
        sweep.decisions,
        sweep.survivor_series,
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_seeded_fast_sweep_is_unchanged(case, golden):
    assert digest(sweep_case(case)) == golden[case]


@pytest.mark.parametrize("case", tile_case_ids())
def test_tile_size_never_changes_results(case, monkeypatch):
    mode, rest = case.split("/", 1)
    n = int(rest.split("/")[1][1:])
    run = lambda: sweep_case(rest, TILE_TRIALS[n], oracle=mode == "oracle")
    default = run()
    for elements in (1, 7):
        monkeypatch.setattr(vectorized, "_TILE_ELEMENTS", elements)
        assert run() == default, elements


if __name__ == "__main__":
    print(json.dumps({case: digest(sweep_case(case)) for case in case_ids()},
                     indent=1, sort_keys=True))
