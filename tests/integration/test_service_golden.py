"""Golden pin for the service: seeded loadtests hash to committed values.

Every stock arrival profile runs at 300 sessions with no chaos, with the
``baseline`` chaos stack and with the ``brownout`` stack, for seeds 0
and 1.  Each case hashes the report's ``deterministic_view`` (which
carries the span digest, the per-phase latency attribution, the metrics
snapshot and the breaker timelines) plus the loadtest's
``unexpected_errors``.  The hashes in ``service_golden.json`` were
computed before the service's session path was last rewritten for speed,
so any drift in what a seeded loadtest does fails here.

Regenerate the file (only for a deliberate, documented behaviour change)
with::

    PYTHONPATH=src python tests/integration/test_service_golden.py \\
        > tests/integration/service_golden.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.fuzz.stacks import get_service_chaos
from repro.service import build_report, deterministic_view, run_loadtest
from repro.service.loadgen import PROFILES

GOLDEN = Path(__file__).with_name("service_golden.json")

CHAOS = ("none", "baseline", "brownout")
SEEDS = (0, 1)
SESSIONS = 300


def case_ids():
    return [f"{profile}/{chaos}/seed{seed}"
            for profile in sorted(PROFILES)
            for chaos in CHAOS
            for seed in SEEDS]


def run_case(case):
    profile, chaos, seed = case.split("/")
    stack = None if chaos == "none" else chaos
    result = run_loadtest(
        profile=profile,
        sessions=SESSIONS,
        seed=int(seed[4:]),
        chaos=None if stack is None else get_service_chaos(stack),
    )
    view = deterministic_view(
        build_report(result, label="golden", chaos_stack=stack)
    )
    observed = json.dumps(
        {"view": view, "unexpected_errors": result.unexpected_errors},
        sort_keys=True,
    )
    return hashlib.sha256(observed.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_seeded_loadtest_is_unchanged(case, golden):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: run_case(case) for case in case_ids()},
                     indent=1, sort_keys=True))
