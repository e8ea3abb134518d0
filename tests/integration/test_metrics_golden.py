"""Golden pin for the metrics snapshots of fixed sweeps and campaigns.

The metrics hook and the hook dispatch are performance-sensitive code; any
rewrite of them must leave every merged snapshot bit-identical.  Each case
hashes the merged snapshot of a seeded sweep: conciliator trial sweeps for
the three paper algorithms at a small and a wider ``n``, and fuzz
campaigns over the honest stacks and over the weakened-model ladder.

Adaptive runs emit ``on_run_start`` too, so ``run.count``,
``sched.queue_depth`` and ``monitor.wait_freedom.step_budget`` gained
their adaptive-run contributions after these hashes were taken.  The
campaign cases that contain adaptive runs hash the snapshot without those
three metrics; the honest campaign without adaptive runs hashes it whole.
"""

import hashlib
import json

import pytest

from repro import catalog
from repro.analysis.experiments import run_conciliator_trials
from repro.fuzz.campaign import run_fuzz_campaign
from repro.fuzz.scenario import FuzzConfig
from repro.fuzz.stacks import ladder_stack_names
from repro.obs.metrics import MetricsRegistry

#: Metrics fed by ``on_run_start``, which adaptive runs now also emit.
RUN_START_METRICS = ("run.count", "sched.queue_depth",
                     "monitor.wait_freedom.step_budget")

TRIAL_GOLDEN = {
    ("sifting", 5): "518a946030b521e0",
    ("sifting", 32): "74043b24615f1981",
    ("snapshot", 5): "b452af7a50d430c2",
    ("snapshot", 32): "92d0ae0d70e4ab59",
    ("cil-embedded", 5): "2bc9ebd6f4929df4",
    ("cil-embedded", 32): "b3eb262e05496074",
}
TRIALS = {5: 40, 32: 12}

CAMPAIGN_GOLDEN = {
    "honest-oblivious": "b2b1f08301375067",
    "honest": "758200d24becf7a7",
    "ladder": "80259fd35759a8ea",
}
CAMPAIGNS = {
    "honest-oblivious": (FuzzConfig(include_adaptive=False), ()),
    "honest": (FuzzConfig(), RUN_START_METRICS),
    "ladder": (FuzzConfig(stacks=tuple(ladder_stack_names())),
               RUN_START_METRICS),
}


def digest(snapshot, without=()):
    """Short SHA-256 of the snapshot, minus metrics named in ``without``
    (labels included)."""
    kept = {
        table: {key: value for key, value in snapshot[table].items()
                if key.split("{", 1)[0] not in without}
        for table in ("counters", "histograms")
    }
    kept["v"] = snapshot["v"]
    text = json.dumps(kept, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,n", sorted(TRIAL_GOLDEN))
def test_trial_sweep_metrics_are_unchanged(name, n):
    registry = MetricsRegistry()
    factory = catalog.get(name).factory
    run_conciliator_trials(lambda: factory(n), [pid % 2 for pid in range(n)],
                           trials=TRIALS[n], master_seed=11, metrics=registry)
    assert digest(registry.to_json()) == TRIAL_GOLDEN[name, n]


@pytest.mark.parametrize("case", sorted(CAMPAIGN_GOLDEN))
def test_campaign_metrics_are_unchanged(case):
    config, without = CAMPAIGNS[case]
    report = run_fuzz_campaign(7, config, trials=40, shrink=False, workers=1,
                               collect_metrics=True)
    assert digest(report.metrics, without) == CAMPAIGN_GOLDEN[case]
