"""Unit tests for trace analytics: lineage, disagreement, attribution."""

import pytest

from repro.analysis.theory import predicted_attribution
from repro.core.conciliator import run_conciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.errors import ConfigurationError
from repro.obs.analyze import (
    ANALYSIS_SCHEMA_VERSION,
    AttributionReport,
    DisagreementReport,
    attribute_steps,
    build_lineages,
    explain_disagreement,
)
from repro.obs.events import TraceEventRecord
from repro.obs.tracing import TraceRecorder
from repro.runtime.rng import SeedTree
from repro.workloads.schedules import make_schedule


def adoption(pid, round_number, persona, value=None, origin=None):
    payload = {"round": round_number, "persona": persona}
    if value is not None:
        payload["value"] = value
    if origin is not None:
        payload["origin"] = origin
    return TraceEventRecord(kind="persona-adoption", pid=pid, payload=payload)


def op(kind, pid, step, obj, **payload):
    return TraceEventRecord(
        kind=kind, pid=pid, step=step, payload={"obj": obj, **payload}
    )


def finish(pid):
    return TraceEventRecord(kind="finish", pid=pid, payload={"output": 0})


def _annotated_sifting_trace(n=4, seed=5):
    conciliator = SiftingConciliator(n)
    seeds = SeedTree(seed)
    schedule = make_schedule("random", n, seeds.child("schedule"))
    recorder = TraceRecorder()
    run_conciliator(
        conciliator, list(range(n)), schedule, seeds, hooks=[recorder]
    )
    recorder.annotate_conciliator(conciliator)
    return recorder.events


class TestBuildLineages:
    def test_requires_adoption_events(self):
        with pytest.raises(ConfigurationError, match="persona-adoption"):
            build_lineages([op("register-read", 0, 1, "x.r[0]")])

    def test_kept_own_chain(self):
        events = [adoption(0, 0, "A"), adoption(0, 1, "A"), adoption(0, 2, "A")]
        lineages = build_lineages(events)
        assert set(lineages) == {0}
        assert all(step.kept_own for step in lineages[0].steps)
        assert lineages[0].final.persona == "A"

    def test_adoption_traces_provenance_to_the_write(self):
        # pid 1 writes persona B into round-0 register at step 3; pid 0
        # reads it at step 5 and enters round 1 holding B.
        events = [
            adoption(0, 0, "A"),
            adoption(1, 0, "B"),
            op("register-write", 1, 3, "sift.r[0]", value="B", op="write"),
            op("register-read", 0, 5, "sift.r[0]", result="B", op="read"),
            adoption(0, 1, "B"),
            adoption(1, 1, "B"),
        ]
        lineages = build_lineages(events)
        hop = lineages[0].steps[1]
        assert not hop.kept_own
        assert hop.read_obj == "sift.r[0]"
        assert hop.read_step == 5
        assert hop.writer_pid == 1
        assert hop.write_step == 3
        # pid 1 kept its own persona throughout: no provenance sought.
        assert all(step.kept_own for step in lineages[1].steps)

    def test_provenance_tolerates_missing_evidence(self):
        # Adoption with no matching read (values stripped, eviction):
        # the hop is recorded, provenance fields stay None.
        events = [adoption(0, 0, "A"), adoption(0, 1, "B")]
        hop = build_lineages(events)[0].steps[1]
        assert not hop.kept_own
        assert hop.read_obj is None and hop.writer_pid is None

    def test_held_at_picks_latest_adoption(self):
        events = [adoption(0, 0, "A"), adoption(0, 2, "B")]
        lineage = build_lineages(events)[0]
        assert lineage.held_at(0).persona == "A"
        assert lineage.held_at(1).persona == "A"
        assert lineage.held_at(2).persona == "B"
        assert lineage.held_at(99).persona == "B"

    def test_real_conciliator_trace(self):
        events = _annotated_sifting_trace(n=4)
        lineages = build_lineages(events)
        assert sorted(lineages) == [0, 1, 2, 3]
        for pid, lineage in lineages.items():
            assert lineage.steps[0].round_number == 0
            assert lineage.steps[0].kept_own


class TestExplainDisagreement:
    def test_agreeing_run_is_not_diverged(self):
        events = [
            adoption(0, 0, "A"), adoption(1, 0, "A"),
            adoption(0, 1, "A"), adoption(1, 1, "A"),
        ]
        report = explain_disagreement(events)
        assert not report.diverged
        assert report.divergence_round is None
        assert len(report.survivors) == 1
        assert "no disagreement" in report.render()

    def test_divergence_round_is_one_past_last_unanimous(self):
        # Unanimous at round 0 ("A" everywhere), split at round 1.
        events = [
            adoption(0, 0, "A"), adoption(1, 0, "A"),
            adoption(0, 1, "A"), adoption(1, 1, "B"),
        ]
        report = explain_disagreement(events)
        assert report.diverged
        assert report.divergence_round == 1
        assert report.rounds_recorded == 2
        holders = {s.persona: s.holders for s in report.survivors}
        assert holders == {"A": (0,), "B": (1,)}

    def test_never_unanimous_diverges_at_round_zero(self):
        events = [adoption(0, 0, "A"), adoption(1, 0, "B")]
        report = explain_disagreement(events)
        assert report.diverged
        assert report.divergence_round == 0

    def test_final_values_follow_survivor_order(self):
        events = [
            adoption(0, 0, "A", value=3), adoption(1, 0, "B", value=7),
        ]
        report = explain_disagreement(events)
        assert report.final_values == (3, 7)

    def test_render_names_divergence_round_and_holders(self):
        events = [
            adoption(0, 0, "A"), adoption(1, 0, "A"),
            adoption(0, 1, "A"), adoption(1, 1, "B"),
        ]
        text = explain_disagreement(events, note="unit").render()
        assert "divergence round: 1" in text
        assert "held by p1" in text
        assert "note: unit" in text

    def test_json_round_trip(self):
        events = [adoption(0, 0, "A"), adoption(1, 0, "B")]
        report = explain_disagreement(events, note="rt")
        again = DisagreementReport.from_json(report.to_json())
        assert again == report
        assert again.to_json() == report.to_json()

    def test_from_json_rejects_foreign_version(self):
        data = explain_disagreement([adoption(0, 0, "A")]).to_json()
        data["v"] = ANALYSIS_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="unsupported analysis"):
            DisagreementReport.from_json(data)

    def test_from_json_rejects_wrong_kind(self):
        data = explain_disagreement([adoption(0, 0, "A")]).to_json()
        data["kind"] = "repro-attribution-report"
        with pytest.raises(ConfigurationError, match="kind"):
            DisagreementReport.from_json(data)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            DisagreementReport.from_json([1, 2])


def exact_prediction(rounds=2, steps=2):
    return {
        "algorithm": "sifting", "n": 2, "epsilon": 0.5,
        "rounds": rounds, "steps_per_round": 1,
        "individual_steps": steps, "relation": "exact",
    }


def bound_prediction(rounds=4, steps=20):
    return {
        "algorithm": "cil-embedded", "n": 2, "epsilon": 0.25,
        "rounds": rounds, "steps_per_round": 2,
        "individual_steps": steps, "relation": "upper-bound",
    }


class TestAttributeSteps:
    def test_rejects_malformed_prediction(self):
        with pytest.raises(ConfigurationError, match="predicted_attribution"):
            attribute_steps([], {"algorithm": "sifting"})

    def test_exact_match_is_within_tolerance(self):
        events = [
            op("register-read", 0, 0, "s.r[0]"),
            op("register-read", 1, 1, "s.r[0]"),
            op("register-write", 0, 2, "s.r[1]"),
            op("register-write", 1, 3, "s.r[1]"),
            finish(0), finish(1),
        ]
        report = attribute_steps(events, exact_prediction(rounds=2, steps=2))
        assert report.within_tolerance
        assert report.observed_rounds == 2
        assert report.round_delta == 0
        assert report.per_round_ops == {0: 2, 1: 2}
        assert report.per_pid_attributed == {0: 2, 1: 2}
        assert report.completed_pids == (0, 1)
        assert report.unattributed_ops == 0

    def test_exact_flags_step_count_mismatch(self):
        events = [
            op("register-read", 0, 0, "s.r[0]"),
            op("register-read", 0, 1, "s.r[1]"),
            op("register-read", 0, 2, "s.r[1]"),  # one extra
            finish(0),
        ]
        report = attribute_steps(events, exact_prediction(rounds=2, steps=2))
        assert not report.within_tolerance

    def test_exact_flags_round_count_mismatch(self):
        events = [op("register-read", 0, 0, "s.r[5]"), finish(0)]
        report = attribute_steps(events, exact_prediction(rounds=2, steps=1))
        assert report.observed_rounds == 6
        assert report.round_delta == 4
        assert not report.within_tolerance

    def test_upper_bound_allows_fewer_steps(self):
        events = [op("snapshot-scan", 0, 0, "c.A[0]"), finish(0)]
        report = attribute_steps(events, bound_prediction(rounds=4, steps=20))
        assert report.within_tolerance
        assert report.round_delta == -3

    def test_upper_bound_flags_excess_total_steps(self):
        events = [
            *(op("register-read", 0, i, "c.flag") for i in range(25)),
            finish(0),
        ]
        report = attribute_steps(events, bound_prediction(rounds=4, steps=20))
        assert report.per_pid_total == {0: 25}
        assert report.unattributed_ops == 25
        assert not report.within_tolerance

    def test_incomplete_run_checks_round_bound_only(self):
        events = [op("register-read", 0, 0, "s.r[0]")]  # no finish
        report = attribute_steps(events, exact_prediction(rounds=2, steps=2))
        assert report.completed_pids == ()
        assert report.within_tolerance
        assert "no process completed" in report.note

    def test_non_round_objects_land_unattributed(self):
        events = [
            op("register-read", 0, 0, "ac.propose"),
            op("max-read", 0, 1, "s.M[0]"),
            finish(0),
        ]
        report = attribute_steps(events, exact_prediction(rounds=1, steps=1))
        assert report.unattributed_ops == 1
        assert report.per_pid_total == {0: 2}
        assert report.per_pid_attributed == {0: 1}

    def test_json_round_trip_restores_int_keys(self):
        events = [
            op("register-read", 0, 0, "s.r[0]"),
            op("register-read", 1, 1, "s.r[1]"),
            finish(0), finish(1),
        ]
        report = attribute_steps(events, exact_prediction(rounds=2, steps=1))
        again = AttributionReport.from_json(report.to_json())
        assert again == report
        assert again.per_round_ops == {0: 1, 1: 1}

    def test_from_json_rejects_foreign_version(self):
        data = attribute_steps([finish(0)], exact_prediction()).to_json()
        data["v"] = ANALYSIS_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="unsupported analysis"):
            AttributionReport.from_json(data)

    def test_render_states_verdict_and_delta(self):
        events = [op("register-read", 0, 0, "s.r[0]"), finish(0)]
        text = attribute_steps(events, exact_prediction(rounds=1, steps=1)) \
            .render()
        assert "within tolerance" in text
        assert "delta +0" in text

    def test_real_sifting_trace_matches_theory_exactly(self):
        n = 4
        events = _annotated_sifting_trace(n=n)
        predicted = predicted_attribution("sifting", n)
        report = attribute_steps(events, predicted)
        assert report.within_tolerance
        assert report.round_delta == 0
        for pid in report.completed_pids:
            assert report.per_pid_attributed[pid] \
                == predicted["individual_steps"]
