"""Golden pin for fuzz trial outcomes: every seeded trial hashes to a
committed value.

``test_metrics_golden.py`` pins only the merged metrics snapshot of a
campaign, so a trial whose status, violation records or note changed
while its counters stayed put would pass there unnoticed.  This pin runs
the same campaigns (master seed 7, 40 trials: honest stacks without and
with adaptive adversaries, and the weakened-model ladder), plus one that
allows out-of-model register faults, and hashes each trial's full
``ScenarioOutcome.to_json()``: the scenario, the status, the violation
and degradation records, the step count, the note and the per-trial
metrics snapshot.

Regenerate the file (only for a deliberate, documented behaviour change)
with::

    PYTHONPATH=src python tests/integration/test_fuzz_golden.py \\
        > tests/integration/fuzz_golden.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.fuzz.scenario import FuzzConfig, generate_scenario, run_scenario
from repro.fuzz.stacks import ladder_stack_names
from repro.obs.metrics import MetricsRegistry

GOLDEN = Path(__file__).with_name("fuzz_golden.json")

MASTER_SEED = 7
TRIALS = 40

CAMPAIGNS = {
    "honest-oblivious": FuzzConfig(include_adaptive=False),
    "honest": FuzzConfig(),
    "ladder": FuzzConfig(stacks=tuple(ladder_stack_names())),
    "out-of-model": FuzzConfig(allow_out_of_model=True),
}


def outcome_digest(outcome):
    text = json.dumps(outcome.to_json(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def campaign_digests(case):
    config = CAMPAIGNS[case]
    return [
        outcome_digest(run_scenario(
            generate_scenario(MASTER_SEED, index, config),
            metrics=MetricsRegistry(),
        ))
        for index in range(TRIALS)
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_campaigns(golden):
    assert sorted(golden) == sorted(CAMPAIGNS)
    assert all(len(digests) == TRIALS for digests in golden.values())


@pytest.mark.parametrize("case", sorted(CAMPAIGNS))
def test_trial_outcomes_are_unchanged(case, golden):
    observed = campaign_digests(case)
    changed = [index for index, (seen, pinned)
               in enumerate(zip(observed, golden[case])) if seen != pinned]
    assert not changed, f"{case}: trials {changed} changed outcome"


if __name__ == "__main__":
    print(json.dumps({case: campaign_digests(case) for case in CAMPAIGNS},
                     indent=1, sort_keys=True))
