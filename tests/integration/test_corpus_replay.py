"""Tier-1 regression gate: replay every committed corpus case.

``tests/corpus/`` holds minimized reproducers for every bug class the chaos
fuzzer has caught (planted protocol bugs and representative out-of-model
degradations).  Each case is a self-contained, versioned JSON scenario; this
test replays them all deterministically and fails if any case stops firing
the oracles it was captured with — i.e. if a behaviour change silently
alters what the oracle suite can see.
"""

from pathlib import Path

import pytest

from repro.fuzz import load_corpus, replay_case
from repro.fuzz.scenario import HARD_ORACLES

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CASES = load_corpus(CORPUS_DIR)


def case_id(entry):
    path, case = entry
    return f"{path.stem}:{'+'.join(case.oracles)}"


def test_committed_corpus_is_not_empty():
    assert CASES, f"expected committed corpus cases under {CORPUS_DIR}"


@pytest.mark.parametrize("entry", CASES, ids=[case_id(e) for e in CASES])
def test_case_replays_to_its_recorded_oracles(entry):
    path, case = entry
    report = replay_case(case, wall_clock_seconds=120.0)
    assert report.reproduced, (
        f"{path.name} no longer reproduces: expected {list(case.oracles)}, "
        f"replay fired {list(report.outcome.oracle_names)} "
        f"(status {report.outcome.status})"
    )
    assert report.missing == (), (
        f"{path.name} only partially reproduces: missing {list(report.missing)}"
    )


@pytest.mark.parametrize("entry", CASES, ids=[case_id(e) for e in CASES])
def test_case_is_deterministic(entry):
    _, case = entry
    first = replay_case(case, wall_clock_seconds=120.0)
    second = replay_case(case, wall_clock_seconds=120.0)
    assert first.outcome.to_json() == second.outcome.to_json()


@pytest.mark.parametrize("entry", CASES, ids=[case_id(e) for e in CASES])
def test_out_of_model_cases_never_breach_hard_oracles(entry):
    """Out-of-model register damage may degrade agreement-flavoured
    oracles, but validity and termination must stay intact."""
    path, case = entry
    if case.scenario.faults.is_in_model:
        pytest.skip("in-model case: hard-oracle breach IS the reproducer")
    report = replay_case(case, wall_clock_seconds=120.0)
    assert report.outcome.status == "degraded", path.name
    breached = {v.oracle for v in report.outcome.violations} & HARD_ORACLES
    assert not breached, f"{path.name} breached hard oracles {breached}"
