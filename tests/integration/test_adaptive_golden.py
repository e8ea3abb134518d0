"""Golden pin for the adaptive runner: seeded runs hash to committed values.

Every adaptive strategy, plus the late-δ and noisy-σ ladder rungs wrapping
``pending-reads`` and ``sift-killer``, drives the sifting and snapshot
conciliators and register consensus at n = 2, 5 and 8, once with no hooks
and once with a full hook set (regular-register semantics, a crash fault and
the four fuzz monitors).  Each case hashes its outputs, per-process step
counts, crashed pids, trace events and the ladder counters
(``clamped``/``perturbed``); the hashes in ``adaptive_golden.json`` were
computed before the step loop was last rewritten, so any drift in what a
seeded adaptive run does fails here.

Regenerate the file (only for a deliberate, documented behaviour change)
with::

    PYTHONPATH=src python tests/integration/test_adaptive_golden.py \\
        > tests/integration/adaptive_golden.json
"""

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import pytest

from repro import catalog
from repro.core.consensus import register_consensus
from repro.memory.semantics import RegisterModel, SemanticsInjector
from repro.runtime.adaptive import (
    ADAPTIVE_FAMILIES,
    make_adaptive,
    run_adaptive_programs,
)
from repro.runtime.adversary import make_adversary
from repro.runtime.faults import CrashFault, FaultPlan
from repro.runtime.monitors import (
    AdoptCommitCoherenceMonitor,
    RegisterSemanticsMonitor,
    ValidityMonitor,
    WaitFreedomWatchdog,
)
from repro.runtime.rng import SeedTree

GOLDEN = Path(__file__).with_name("adaptive_golden.json")

PROTOCOLS = {
    "sifting": catalog.get("sifting").factory,
    "snapshot": catalog.get("snapshot").factory,
    "register-consensus": lambda n: register_consensus(
        n, value_domain=list(range(n))
    ),
}
SIZES = (2, 5, 8)
HOOKS = ("none", "full")

#: Adversary label -> builder taking a seed.
ADVERSARIES = {name: (lambda seed, name=name: make_adaptive(name, seed))
               for name in ADAPTIVE_FAMILIES}
for _inner in ("pending-reads", "sift-killer"):
    for _delay in (0, 1, 4):
        ADVERSARIES[f"late-{_delay}({_inner})"] = (
            lambda seed, inner=_inner, delay=_delay:
            make_adversary("late", inner=inner, seed=seed, delay=delay))
    for _noise in (0.0, 0.5, 1.0):
        ADVERSARIES[f"noisy-{_noise}({_inner})"] = (
            lambda seed, inner=_inner, noise=_noise:
            make_adversary("noisy", inner=inner, seed=seed, noise=noise))


def case_ids():
    return [f"{adversary}/{protocol}/n{n}/{hooks}"
            for adversary in ADVERSARIES
            for protocol in PROTOCOLS
            for n in SIZES
            for hooks in HOOKS]


def full_hooks(n, inputs):
    model = RegisterModel("regular", seed=n, p_old=0.5, window=2)
    return [
        SemanticsInjector(model),
        FaultPlan(crashes=(CrashFault(pid=n - 1, after_steps=3),)).injector(),
        ValidityMonitor(inputs, strict=False),
        AdoptCommitCoherenceMonitor(strict=False),
        WaitFreedomWatchdog(100_000, strict=False),
        RegisterSemanticsMonitor(strict=False, model=model),
    ]


def run_case(case):
    adversary_name, protocol, size, hooks = case.split("/")
    n = int(size[1:])
    seed = 1000 * n + sorted(PROTOCOLS).index(protocol)
    inputs = list(range(n))
    adversary = ADVERSARIES[adversary_name](seed)
    result = run_adaptive_programs(
        [PROTOCOLS[protocol](n).program] * n,
        adversary,
        SeedTree(seed),
        inputs=inputs,
        record_trace=True,
        hooks=full_hooks(n, inputs) if hooks == "full" else (),
    )
    observed = (
        sorted(result.outputs.items()),
        sorted(result.steps_by_pid.items()),
        sorted(result.crashed),
        [astuple(event) for event in result.trace.events],
        getattr(adversary, "clamped", None),
        getattr(adversary, "perturbed", None),
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_seeded_run_is_unchanged(case, golden):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: run_case(case) for case in case_ids()},
                     indent=1, sort_keys=True))
