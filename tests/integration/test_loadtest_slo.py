"""Integration: seeded loadtests, SLO reports, and the committed baseline.

These are the PR's acceptance gates, run in-process:

- same seed ⇒ byte-identical deterministic SLO view (the virtual-time
  loop plus pre-drawn traffic makes the whole loadtest a pure function
  of its arguments);
- the burst profile with the ``baseline`` chaos stack demonstrates the
  full overload story: queue-full shedding, a complete breaker
  open → half-open → close cycle, and vectorized-fallback degradation;
- the committed ``benchmarks/SLO_baseline.json`` regenerates exactly;
- the ``repro loadtest`` CLI exits 0 on clean runs and writes valid
  versioned reports and history ledger lines.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.fuzz.stacks import get_service_chaos
from repro.service import (
    ServiceConfig,
    build_report,
    deterministic_view,
    load_report,
    render_report,
    run_loadtest,
)
from repro.service.slo import (
    SLO_TREND_METRICS,
    append_slo_history,
    load_slo_history,
    render_slo_trend,
    slo_history_entry,
    summarize_slo_trend,
)
from repro.service.spans import phase_sum, span_digest

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "SLO_baseline.json"
)


def baseline_run(sessions=2000, seed=0):
    """The exact configuration the committed baseline artifact used."""
    return run_loadtest(
        profile="burst",
        sessions=sessions,
        seed=seed,
        config=ServiceConfig(),
        chaos=get_service_chaos("baseline"),
    )


def canonical(view):
    return json.dumps(view, indent=2, sort_keys=True)


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = build_report(
            baseline_run(sessions=400), label="det", chaos_stack="baseline"
        )
        second = build_report(
            baseline_run(sessions=400), label="det", chaos_stack="baseline"
        )
        assert canonical(deterministic_view(first)) == canonical(
            deterministic_view(second)
        )

    def test_different_seeds_differ(self):
        first = build_report(baseline_run(sessions=400, seed=0))
        second = build_report(baseline_run(sessions=400, seed=1))
        assert canonical(deterministic_view(first)) != canonical(
            deterministic_view(second)
        )


class TestOverloadStory:
    @pytest.fixture(scope="class")
    def report(self):
        return build_report(
            baseline_run(), label="baseline", chaos_stack="baseline"
        )

    def test_no_unexpected_errors(self, report):
        assert report["sessions"]["unexpected_errors"] == 0

    def test_burst_overload_sheds_on_the_queue_bound(self, report):
        assert report["sessions"]["rejected"]["queue-full"] > 0
        assert report["shed_rate"] > 0

    def test_breaker_completes_a_full_cycle(self, report):
        cycles = [
            breaker for breaker in report["breakers"].values()
            if breaker["opened"] >= 1
            and breaker["half_opened"] >= 1
            and breaker["closed_again"] >= 1
        ]
        assert cycles, (
            "at least one shard's breaker must open, half-open, and "
            f"close again; got {report['breakers']}"
        )

    def test_sustained_overload_degrades_to_the_vectorized_backend(
        self, report
    ):
        assert report["degraded_mode"]["entered"] >= 1
        assert report["sessions"]["degraded"] > 0

    def test_session_accounting_sums_to_offered(self, report):
        """Offered = admitted + rejected + missing, with admitted drawn
        from observed outcomes only — never presumed from the offer."""
        sessions = report["sessions"]
        assert sessions["offered"] == (
            sessions["admitted"]
            + sum(sessions["rejected"].values())
            + sessions["missing"]
        )
        assert sessions["admitted"] == (
            sessions["completed"] + sum(sessions["failed"].values())
        )
        assert sessions["missing"] == 0  # clean run: every offer answered

    def test_report_carries_the_slo_schema_fields(self, report):
        assert report["v"] == 1
        for field in ("p50", "p95", "p99", "mean", "max"):
            assert isinstance(report["latency"][field], float)
        assert 0 <= report["shed_rate"] <= 1
        assert 0 <= report["slo"]["attainment"] <= 1
        assert report["goodput_per_sec"] > 0

    def test_render_report_summarizes_every_section(self, report):
        text = render_report(report)
        for needle in ("offered=2000", "queue-full=", "breaker[0]",
                       "degraded", "shed rate"):
            assert needle in text


class TestCommittedBaseline:
    def test_committed_baseline_regenerates_exactly(self):
        committed = load_report(BASELINE_PATH)
        regenerated = build_report(
            baseline_run(),
            label=committed["label"],
            slo_target_latency=committed["slo"]["target_latency"],
            chaos_stack=committed["chaos_stack"],
        )
        assert canonical(deterministic_view(regenerated)) == canonical(
            deterministic_view(committed)
        )

    def test_load_report_rejects_foreign_versions(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"v": 99}))
        with pytest.raises(ConfigurationError, match="version"):
            load_report(str(path))

    def test_load_report_refuses_missing_and_corrupt_files(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot be read"):
            load_report(str(tmp_path / "absent.json"))
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text('{"v": 1, "lat')
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_report(str(corrupt))

    def test_load_report_refuses_a_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object, got list"):
            load_report(str(path))


class TestSessionAccounting:
    def test_missing_responses_are_not_presumed_admitted(self):
        """Sessions with no response at all (submit() raised, slot stayed
        None) land in the ``missing`` bucket, not in ``admitted``."""
        import dataclasses

        result = baseline_run(sessions=100)
        dropped = dataclasses.replace(
            result, responses=result.responses[:-5], unexpected_errors=5,
        )
        sessions = build_report(dropped)["sessions"]
        assert sessions["missing"] == 5
        assert sessions["offered"] == (
            sessions["admitted"]
            + sum(sessions["rejected"].values())
            + sessions["missing"]
        )


class TestHistoryLedger:
    def test_entry_distills_the_trend_numbers(self):
        report = build_report(
            baseline_run(sessions=200), label="ledger",
            chaos_stack="baseline",
        )
        entry = slo_history_entry(report)
        assert entry["kind"] == "repro-slo-history"
        assert entry["p50"] == report["latency"]["p50"]
        assert entry["shed_rate"] == report["shed_rate"]
        assert entry["unexpected_errors"] == 0

    def test_append_is_one_json_line_per_run(self, tmp_path):
        report = build_report(baseline_run(sessions=200))
        path = tmp_path / "ledger" / "SLO_history.jsonl"
        append_slo_history(report, str(path))
        append_slo_history(report, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "repro-slo-history"

    def test_non_report_is_refused(self):
        with pytest.raises(ConfigurationError, match="not an SLO report"):
            slo_history_entry({"v": 1})


class TestLatencyAttribution:
    """The tentpole acceptance gate: per-session phase times sum exactly
    to the session latency, under overload and chaos, at any worker
    count, and the whole section sits inside the deterministic view."""

    @pytest.mark.parametrize("workers_per_shard", [1, 2, 4])
    def test_phases_sum_bit_exactly_to_latency_for_every_session(
        self, workers_per_shard
    ):
        result = run_loadtest(
            profile="burst",
            sessions=400,
            seed=0,
            config=ServiceConfig(workers_per_shard=workers_per_shard),
            chaos=get_service_chaos("baseline"),
        )
        by_id = {t.attrs["session_id"]: t for t in result.spans}
        checked = 0
        for response in result.responses:
            if response.status == "rejected":
                continue
            phases = by_id[response.session_id].attrs["phases"]
            assert phase_sum(phases) == response.latency, (
                f"session {response.session_id} at "
                f"workers_per_shard={workers_per_shard}: phases "
                f"{phases} do not sum to latency {response.latency!r}"
            )
            checked += 1
        assert checked > 100  # the invariant was actually exercised

    def test_every_session_emits_exactly_one_tree(self):
        result = baseline_run(sessions=300)
        assert len(result.spans) == 300
        ids = sorted(t.attrs["session_id"] for t in result.spans)
        assert ids == list(range(300))

    def test_attribution_section_is_in_the_deterministic_view(self):
        report = build_report(baseline_run(sessions=300))
        view = deterministic_view(report)
        attribution = view["latency_attribution"]
        assert attribution is not None
        assert set(attribution["phases"]) == {
            "stall", "queue-wait", "worker-call", "backoff", "unattributed"
        }
        # Shares are fractions of the summed latency and cover it.
        shares = sum(
            phase["share"] for phase in attribution["phases"].values()
        )
        assert shares == pytest.approx(1.0)
        assert attribution["sessions_unmatched"] == 0

    def test_percentile_rows_name_real_sessions_with_phase_breakdowns(self):
        report = build_report(baseline_run(sessions=300))
        attribution = report["latency_attribution"]
        for label in ("p50", "p95", "p99"):
            row = attribution["percentiles"][label]
            assert row["phases"] is not None
            assert phase_sum(row["phases"]) == row["latency"]

    def test_breaker_timelines_record_the_full_cycle(self):
        report = build_report(baseline_run())
        timelines = report["latency_attribution"]["breaker_timelines"]
        states = [
            state for timeline in timelines.values()
            for _, state in timeline
        ]
        # The burst+chaos baseline drives at least one shard through
        # open -> half-open -> closed.
        assert {"open", "half-open", "closed"} <= set(states)

    def test_spans_digest_matches_the_trees(self):
        result = baseline_run(sessions=300)
        report = build_report(result)
        assert report["latency_attribution"]["spans"]["digest"] \
            == span_digest(result.spans)

    def test_attribution_is_none_without_spans(self):
        import dataclasses

        result = baseline_run(sessions=100)
        stripped = dataclasses.replace(result, spans=None)
        assert build_report(stripped)["latency_attribution"] is None

    def test_render_report_shows_the_budget_lines(self):
        text = render_report(build_report(baseline_run(sessions=300)))
        assert "budget" in text
        assert "spans" in text
        assert "digest=sha256:" in text


class TestSLOTrend:
    def make_history(self, tmp_path, runs=3):
        path = tmp_path / "SLO_history.jsonl"
        for seed in range(runs):
            report = build_report(
                baseline_run(sessions=150, seed=seed), label=f"run{seed}",
            )
            append_slo_history(report, str(path))
        return path

    def test_load_summarize_roundtrip(self, tmp_path):
        path = self.make_history(tmp_path)
        entries = load_slo_history(path)
        assert len(entries) == 3
        trends = summarize_slo_trend(entries)
        assert [t.name for t in trends] == list(SLO_TREND_METRICS)
        assert all(t.points == 3 for t in trends)

    def test_last_windows_the_ledger(self, tmp_path):
        entries = load_slo_history(self.make_history(tmp_path))
        trends = summarize_slo_trend(entries, last=1)
        assert all(t.points == 1 for t in trends)
        assert all(t.latest_change is None for t in trends)

    def test_missing_file_is_an_empty_history(self, tmp_path):
        assert load_slo_history(tmp_path / "absent.jsonl") == []
        assert "empty" in render_slo_trend([])

    def test_torn_final_line_is_tolerated_with_a_warning(self, tmp_path):
        path = self.make_history(tmp_path, runs=2)
        with open(path, "a") as handle:
            handle.write('{"v": 1, "kind": "repro-slo-his')
        with pytest.warns(RuntimeWarning, match="torn"):
            entries = load_slo_history(path)
        assert len(entries) == 2

    def test_torn_interior_line_is_an_error(self, tmp_path):
        path = self.make_history(tmp_path, runs=1)
        good = path.read_text()
        path.write_text('{"torn\n' + good)
        with pytest.raises(ConfigurationError, match="line 1"):
            load_slo_history(path)

    def test_foreign_version_is_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps({"v": 9, "kind": "repro-slo-history"}) + "\n"
        )
        with pytest.raises(ConfigurationError, match="version 9"):
            load_slo_history(path)

    def test_foreign_kind_is_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps({"v": 1, "kind": "repro-bench-history"}) + "\n"
        )
        with pytest.raises(ConfigurationError, match="kind"):
            load_slo_history(path)

    def test_render_names_every_metric(self, tmp_path):
        text = render_slo_trend(load_slo_history(self.make_history(tmp_path)))
        for metric in SLO_TREND_METRICS:
            assert metric in text

    def test_cli_trend_renders_and_exits_zero(self, tmp_path, capsys):
        path = self.make_history(tmp_path, runs=2)
        assert main(["slo", "trend", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SLO trend over 2 entries" in out

    def test_cli_trend_json_mode(self, tmp_path, capsys):
        path = self.make_history(tmp_path, runs=2)
        assert main(["slo", "trend", "--history", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["metric"] for row in rows} == set(SLO_TREND_METRICS)


class TestSpansCli:
    def run_with_spans(self, tmp_path):
        spans_dir = tmp_path / "spans"
        out = tmp_path / "report.json"
        code = main([
            "loadtest", "--profile", "burst", "--sessions", "120",
            "--seed", "0", "--chaos", "baseline", "--label", "spans-ci",
            "--out", str(out), "--spans", str(spans_dir),
        ])
        return code, out, spans_dir / "SPANS_spans-ci.jsonl"

    def test_spans_flag_persists_one_tree_per_session(self, tmp_path,
                                                      capsys):
        from repro.service.spans import read_spans_jsonl

        code, _, spans_path = self.run_with_spans(tmp_path)
        assert code == 0
        assert "wrote 120 span tree(s)" in capsys.readouterr().out
        assert len(read_spans_jsonl(spans_path)) == 120

    def test_report_digest_re_verifies_against_the_spans_file(
        self, tmp_path, capsys
    ):
        """The digest in the SLO report is sha256 over exactly the bytes
        the --spans file holds, so artifacts cross-check offline."""
        import hashlib

        code, out, spans_path = self.run_with_spans(tmp_path)
        assert code == 0
        report = load_report(str(out))
        digest = report["latency_attribution"]["spans"]["digest"]
        on_disk = hashlib.sha256(spans_path.read_bytes()).hexdigest()
        assert digest == f"sha256:{on_disk}"

    def test_waterfall_renders_a_session_from_the_spans_file(
        self, tmp_path, capsys
    ):
        code, out, spans_path = self.run_with_spans(tmp_path)
        assert code == 0
        report = load_report(str(out))
        session = report["latency_attribution"]["percentiles"]["p99"][
            "session_id"]
        capsys.readouterr()
        assert main([
            "slo", "waterfall", str(spans_path),
            "--session", str(session),
        ]) == 0
        text = capsys.readouterr().out
        assert f"session {session}:" in text
        assert "worker-call" in text

    def test_waterfall_html_writes_a_self_contained_page(self, tmp_path,
                                                         capsys):
        code, out, spans_path = self.run_with_spans(tmp_path)
        assert code == 0
        page = tmp_path / "waterfall.html"
        assert main([
            "slo", "waterfall", str(spans_path), "--session", "0",
            "--html", "--out", str(page),
        ]) == 0
        content = page.read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "<script" not in content

    def test_waterfall_unknown_session_is_a_clean_error(self, tmp_path,
                                                        capsys):
        code, _, spans_path = self.run_with_spans(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main([
            "slo", "waterfall", str(spans_path), "--session", "99999",
        ]) == 1
        assert "no session 99999" in capsys.readouterr().err


class TestLoadtestCli:
    def test_clean_run_exits_zero_and_writes_artifacts(self, tmp_path,
                                                       capsys):
        out = tmp_path / "report.json"
        history = tmp_path / "history.jsonl"
        code = main([
            "loadtest", "--profile", "steady", "--sessions", "60",
            "--seed", "3", "--label", "ci-smoke",
            "--out", str(out), "--history", str(history),
        ])
        assert code == 0
        report = load_report(str(out))
        assert report["label"] == "ci-smoke"
        assert report["sessions"]["unexpected_errors"] == 0
        assert len(history.read_text().splitlines()) == 1
        assert "SLO report" in capsys.readouterr().out

    def test_verify_determinism_flag_passes(self, capsys):
        code = main([
            "loadtest", "--profile", "burst", "--sessions", "150",
            "--seed", "5", "--chaos", "brownout", "--verify-determinism",
            "--json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        verdict, _, payload = out.partition("\n")
        assert "determinism verified" in verdict
        assert json.loads(payload)["v"] == 1

    def test_unknown_chaos_stack_is_a_loud_error(self, capsys):
        code = main([
            "loadtest", "--profile", "steady", "--sessions", "10",
            "--chaos", "no-such-stack",
        ])
        assert code != 0
        assert "unknown service chaos stack" in capsys.readouterr().err
