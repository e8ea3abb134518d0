"""Tier-1 gates for trace analytics: corpus explanations and theory
attribution.

Two contracts from the analytics layer are load-bearing enough to gate:

- every committed agreement-violation reproducer must explain — the
  replayed trace must yield a :class:`DisagreementReport` whose
  divergence round is internally consistent with the lineages; and
- on honest deterministic runs, step attribution must match
  ``repro.analysis.theory`` within the documented tolerances: exact
  equality for Algorithms 1-2, upper bounds for Algorithm 3.

A third asserts explanation files are byte-identical regardless of the
producing campaign's worker count, like every other artifact here.
"""

from pathlib import Path

import pytest

from repro.analysis.theory import predicted_attribution
from repro.core.cil_embedded import CILEmbeddedConciliator
from repro.core.conciliator import run_conciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.fuzz import FuzzConfig, load_corpus, run_fuzz_campaign
from repro.fuzz.explain import explain_case
from repro.jsonio import dumps
from repro.obs.analyze import attribute_steps
from repro.obs.tracing import TraceRecorder
from repro.runtime.rng import SeedTree
from repro.workloads.schedules import make_schedule

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

AGREEMENT_CASES = [
    (path, case) for path, case in load_corpus(CORPUS_DIR)
    if "agreement" in case.oracles
]


def case_id(entry):
    return entry[0].stem


class TestCorpusDisagreementReports:
    def test_corpus_carries_an_agreement_reproducer(self):
        assert AGREEMENT_CASES, (
            "expected at least one committed agreement-violation "
            f"reproducer under {CORPUS_DIR}"
        )

    @pytest.mark.parametrize(
        "entry", AGREEMENT_CASES, ids=[case_id(e) for e in AGREEMENT_CASES]
    )
    def test_agreement_case_explains_with_valid_divergence_round(self, entry):
        path, case = entry
        explanation = explain_case(case, wall_clock_seconds=120.0)
        assert explanation.status == "violation", path.name
        report = explanation.disagreement
        assert report is not None, (
            f"{path.name}: agreement violation produced no disagreement "
            "report"
        )
        assert report.diverged
        assert len(report.survivors) > 1
        d = report.divergence_round
        assert d is not None and 0 <= d < report.rounds_recorded

        # The divergence round is tight: from round d on, the processes
        # never again all hold one persona, and (when d > 0) they were
        # unanimous at some earlier round.
        def distinct_personas(round_number):
            held = {
                lineage.held_at(round_number).persona
                for lineage in report.lineages
                if lineage.held_at(round_number) is not None
            }
            return len(held)

        assert all(
            distinct_personas(r) > 1
            for r in range(d, report.rounds_recorded)
        ), f"{path.name}: a round >= {d} is unanimous"
        if d > 0:
            assert any(distinct_personas(r) == 1 for r in range(d)), \
                f"{path.name}: no unanimous round before {d}"

    @pytest.mark.parametrize(
        "entry", AGREEMENT_CASES, ids=[case_id(e) for e in AGREEMENT_CASES]
    )
    def test_explanation_is_deterministic(self, entry):
        _, case = entry
        first = explain_case(case, wall_clock_seconds=120.0)
        second = explain_case(case, wall_clock_seconds=120.0)
        assert dumps(first.to_json()) == dumps(second.to_json())

    @pytest.mark.parametrize(
        "entry", AGREEMENT_CASES[:1], ids=[case_id(e) for e in
                                           AGREEMENT_CASES[:1]]
    )
    def test_explanation_carries_a_complete_trace_receipt(self, entry):
        """Explanations replay under a recorder that keeps every event, so
        the trace under analysis is the whole run: it opens at
        ``run-start``, closes exactly once at ``run-end``, and the JSON's
        ``event_count`` counts every event it carries."""
        _, case = entry
        explanation = explain_case(case, wall_clock_seconds=120.0)
        kinds = [event.kind for event in explanation.events]
        assert kinds[0] == "run-start"
        assert kinds.count("run-end") == 1
        data = explanation.to_json()
        assert data["event_count"] == len(data["events"]) \
            == len(explanation.events)


class TestAttributionMatchesTheory:
    """Deterministic sweep over the three paper algorithms (n=4, seed 7)."""

    N = 4
    SEED = 7

    def _trace(self, conciliator):
        seeds = SeedTree(self.SEED)
        schedule = make_schedule("random", self.N, seeds.child("schedule"))
        recorder = TraceRecorder()
        run_conciliator(
            conciliator, list(range(self.N)), schedule, seeds,
            hooks=[recorder],
        )
        recorder.annotate_conciliator(conciliator)
        return recorder.events

    def test_snapshot_is_exact(self):
        predicted = predicted_attribution("snapshot", self.N)
        report = attribute_steps(
            self._trace(SnapshotConciliator(self.N)), predicted
        )
        assert predicted["relation"] == "exact"
        assert report.within_tolerance
        assert report.round_delta == 0
        assert len(report.completed_pids) == self.N
        for pid in report.completed_pids:
            assert report.per_pid_attributed[pid] \
                == predicted["individual_steps"]

    def test_sifting_is_exact(self):
        predicted = predicted_attribution("sifting", self.N)
        report = attribute_steps(
            self._trace(SiftingConciliator(self.N)), predicted
        )
        assert predicted["relation"] == "exact"
        assert report.within_tolerance
        assert report.round_delta == 0
        for pid in report.completed_pids:
            assert report.per_pid_attributed[pid] \
                == predicted["individual_steps"]

    def test_cil_embedded_stays_under_its_bounds(self):
        predicted = predicted_attribution("cil-embedded", self.N)
        report = attribute_steps(
            self._trace(CILEmbeddedConciliator(self.N)), predicted
        )
        assert predicted["relation"] == "upper-bound"
        assert report.within_tolerance
        assert report.round_delta <= 0
        assert len(report.completed_pids) == self.N
        for pid in report.completed_pids:
            assert report.per_pid_total[pid] <= predicted["individual_steps"]


class TestWorkerCountInvariance:
    def test_explanations_are_byte_identical_across_worker_counts(
        self, tmp_path
    ):
        # The planted-agreement stack at master seed 2012 reproduces a
        # violation within 20 trials; the campaign's explanation files
        # must not depend on how the trials were scheduled.
        config = FuzzConfig(stacks=("planted-agreement",), max_n=4)
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_fuzz_campaign(
                2012, config, trials=20, corpus_dir=out, explain_dir=out,
                workers=workers, shrink_deadline=20.0,
            )
            files = sorted(p.name for p in out.glob("*.explain.json"))
            assert files, f"workers={workers} produced no explanations"
            outputs[workers] = {
                name: (out / name).read_bytes() for name in files
            }
        assert outputs[1] == outputs[2]


class TestStackAlgorithmMap:
    def test_mapped_stacks_have_valid_predictions(self):
        from repro.fuzz.stacks import get_stack, stack_names

        mapped = [
            get_stack(stack).attribution
            for stack in stack_names(include_planted=True)
            if get_stack(stack).attribution is not None
        ]
        assert len(mapped) == 6
        for algorithm, epsilon in mapped:
            predicted = predicted_attribution(algorithm, 4, epsilon)
            assert predicted["rounds"] >= 1
            assert predicted["individual_steps"] >= 1
