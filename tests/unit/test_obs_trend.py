"""Unit tests for the append-only bench trend ledger."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.trend import (
    TREND_SCHEMA_VERSION,
    append_history,
    history_entry,
    load_history,
    render_trend,
    summarize_trend,
)


def report(label="t", sha="abc", **cases):
    return {
        "label": label,
        "quick": True,
        "seed": 2012,
        "git_sha": sha,
        "created_unix": 1000,
        "cases": {
            name: {"steps_per_sec": sps, "trials": 5}
            for name, sps in cases.items()
        },
    }


class TestHistoryEntry:
    def test_distills_report(self):
        entry = history_entry(report(sifting=100.0, snapshot=50.0))
        assert entry["v"] == TREND_SCHEMA_VERSION
        assert entry["kind"] == "repro-bench-history"
        assert entry["cases"] == {"sifting": 100.0, "snapshot": 50.0}
        assert entry["git_sha"] == "abc"

    def test_rejects_non_report(self):
        with pytest.raises(ConfigurationError, match="run_bench_suite"):
            history_entry({"cases": {}})


class TestAppendAndLoad:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "ledger" / "BENCH_history.jsonl"
        append_history(report(sha="a", x=10.0), path)
        append_history(report(sha="b", x=11.0), path)
        entries = load_history(path)
        assert [e["git_sha"] for e in entries] == ["a", "b"]
        assert [e["cases"]["x"] for e in entries] == [10.0, 11.0]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_warns_and_drops(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(report(x=10.0), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"repro-bench-hi')  # crash mid-append
        with pytest.warns(RuntimeWarning, match="torn line"):
            entries = load_history(path)
        assert len(entries) == 1

    def test_torn_line_with_later_entries_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"nope\n', encoding="utf-8")
        append_history(report(x=10.0), path)
        with pytest.raises(ConfigurationError, match="later entries exist"):
            load_history(path)

    def test_foreign_version_raises_even_at_tail(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(report(x=10.0), path)
        entry = history_entry(report(x=11.0))
        entry["v"] = TREND_SCHEMA_VERSION + 1
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        with pytest.raises(ConfigurationError, match="unsupported bench"):
            load_history(path)

    def test_foreign_ledger_kind_raises(self, tmp_path):
        # An SLO history line has the same "v" but another kind; reading
        # it as a bench entry would render an empty table.
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({
            "v": TREND_SCHEMA_VERSION, "kind": "repro-slo-history",
            "p50": 0.1,
        }) + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="kind 'repro-slo-history'"):
            load_history(path)

    def test_cli_refuses_a_foreign_ledger(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "h.jsonl"
        path.write_text('{"v":1,"kind":"repro-slo-history"}\n',
                        encoding="utf-8")
        assert main(["bench", "trend", "--history", str(path)]) == 2
        assert "kind" in capsys.readouterr().err


class TestSummarize:
    def entries(self):
        return [
            history_entry(report(sha="a", x=100.0)),
            history_entry(report(sha="b", x=110.0, y=10.0)),
            history_entry(report(sha="c", x=55.0, y=20.0)),
        ]

    def test_latest_and_overall_changes(self):
        trends = {t.name: t for t in summarize_trend(self.entries())}
        x = trends["x"]
        assert x.points == 3
        assert x.first == 100.0
        assert x.last == 55.0
        assert x.latest_change == pytest.approx(-0.5)
        assert x.overall_change == pytest.approx(-0.45)
        # y appears in only two entries; both deltas still compute.
        assert trends["y"].latest_change == pytest.approx(1.0)

    def test_single_point_has_no_deltas(self):
        trends = summarize_trend(self.entries()[:1])
        assert trends[0].latest_change is None
        assert trends[0].overall_change is None

    def test_last_windows_the_ledger(self):
        trends = {t.name: t for t in summarize_trend(self.entries(), last=2)}
        assert trends["x"].first == 110.0
        assert trends["x"].points == 2

    def test_last_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="last"):
            summarize_trend(self.entries(), last=0)


class TestRender:
    def test_empty_history_hints_at_the_flag(self):
        assert "repro bench --history" in render_trend([])

    def test_table_names_cases_and_shas(self):
        entries = [
            history_entry(report(sha="aaaaaaaaaaaaaaaa", x=100.0)),
            history_entry(report(sha="bbbbbbbbbbbbbbbb", x=150.0)),
        ]
        text = render_trend(entries)
        assert "2 entries" in text
        assert "aaaaaaaaaaaa -> bbbbbbbbbbbb" in text
        assert "+50.0%" in text

    def test_deterministic(self):
        entries = [history_entry(report(x=100.0))]
        assert render_trend(entries) == render_trend(entries)
