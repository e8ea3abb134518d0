"""Unit tests for the robustness probe report and its invariants."""

import pytest

from repro import catalog
from repro.analysis.probe import ProbeReport, run_probe
from repro.errors import ConfigurationError
from repro.runtime.adversary import ADVERSARY_LADDER


def _rung_row(rung, rate, validity_failures=0):
    return {
        "rung": rung,
        "adversary": rung,
        "agreement_rate": rate,
        "agreement_interval": [rate - 0.05, rate + 0.05],
        "validity_failures": validity_failures,
        "mean_total_steps": 100.0,
    }


def _report(rates, validity_failures=0):
    return ProbeReport(
        seed=1, n=4, trials=10, inner="pending-reads", noise=0.8, delay=1,
        ladder={"sifting": [
            _rung_row(rung, rate, validity_failures)
            for rung, rate in zip(ADVERSARY_LADDER, rates)
        ]},
        register_models=[{
            "algorithm": "sifting", "model": "regular",
            "agreement_rate": 0.8, "validity_failures": validity_failures,
            "mean_total_steps": 100.0,
        }],
    )


class TestProbeReport:
    def test_monotone_accepts_weak_decrease(self):
        assert _report([0.9, 0.9, 0.8, 0.6]).monotone == {"sifting": True}

    def test_monotone_rejects_increase(self):
        assert _report([0.9, 0.95, 0.8, 0.6]).monotone == {"sifting": False}

    def test_hard_oracles_hold(self):
        assert _report([0.9, 0.8, 0.7, 0.6]).hard_oracles_hold
        assert not _report([0.9, 0.8, 0.7, 0.6],
                           validity_failures=1).hard_oracles_hold

    def test_ok_needs_both(self):
        assert _report([0.9, 0.8, 0.7, 0.6]).ok
        assert not _report([0.9, 0.95, 0.8, 0.6]).ok
        assert not _report([0.9, 0.8, 0.7, 0.6], validity_failures=1).ok

    def test_json_round_trip(self):
        report = _report([0.9, 0.8, 0.7, 0.6])
        loaded = ProbeReport.from_json(report.to_json())
        assert loaded.ladder == report.ladder
        assert loaded.register_models == report.register_models
        assert loaded.ok == report.ok

    def test_json_version_rejected(self):
        data = _report([0.9, 0.8, 0.7, 0.6]).to_json()
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            ProbeReport.from_json(data)

    def test_render_tabulates_every_rung(self):
        rendered = _report([0.9, 0.8, 0.7, 0.6]).render()
        for rung in ADVERSARY_LADDER:
            assert rung in rendered
        assert "register model" in rendered


class TestRunProbe:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            run_probe(algorithms=("raft",), trials=1)

    def test_rejects_unknown_inner(self):
        with pytest.raises(ConfigurationError):
            run_probe(inner="nope", trials=1)

    def test_algorithms_cover_both_papers_algorithms(self):
        assert set(catalog.names("decay_bound")) == {"sifting", "snapshot"}

    def test_small_probe_is_deterministic(self):
        kwargs = dict(n=3, trials=4, seed=5, algorithms=("sifting",))
        first = run_probe(**kwargs)
        second = run_probe(**kwargs)
        assert first.to_json() == second.to_json()
        # Every rung and every register model actually ran.
        rungs = [row["rung"] for row in first.ladder["sifting"]]
        assert rungs == list(ADVERSARY_LADDER)
        assert len(first.register_models) == 2 * 3  # both algos x 3 models
