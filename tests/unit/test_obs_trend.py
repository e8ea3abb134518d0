"""Unit tests for the append-only bench trend ledger."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.jsonio import append_jsonl
from repro.obs.trend import BENCH_LEDGER, TREND_SCHEMA_VERSION, history_entry


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
        append_jsonl(path, history_entry(report(sha="a", x=10.0)))
        append_jsonl(path, history_entry(report(sha="b", x=11.0)))
        entries = BENCH_LEDGER.load(path)
        assert [e["git_sha"] for e in entries] == ["a", "b"]
        assert [e["cases"]["x"] for e in entries] == [10.0, 11.0]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert BENCH_LEDGER.load(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_warns_and_drops(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_jsonl(path, history_entry(report(x=10.0)))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"repro-bench-hi')  # crash mid-append
        with pytest.warns(RuntimeWarning, match="torn line"):
            entries = BENCH_LEDGER.load(path)
        assert len(entries) == 1

    def test_torn_line_with_later_entries_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"nope\n', encoding="utf-8")
        append_jsonl(path, history_entry(report(x=10.0)))
        with pytest.raises(ConfigurationError, match="later entries exist"):
            BENCH_LEDGER.load(path)

    def test_foreign_version_raises_even_at_tail(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_jsonl(path, history_entry(report(x=10.0)))
        entry = history_entry(report(x=11.0))
        entry["v"] = TREND_SCHEMA_VERSION + 1
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        with pytest.raises(ConfigurationError, match="unsupported bench"):
            BENCH_LEDGER.load(path)

    def test_foreign_ledger_kind_raises(self, tmp_path):
        # An SLO history line has the same "v" but another kind; reading
        # it as a bench entry would render an empty table.
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({
            "v": TREND_SCHEMA_VERSION, "kind": "repro-slo-history",
            "p50": 0.1,
        }) + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="kind 'repro-slo-history'"):
            BENCH_LEDGER.load(path)

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
        trends = {t.name: t for t in BENCH_LEDGER.summarize(self.entries())}
        x = trends["x"]
        assert x.points == 3
        assert x.first == 100.0
        assert x.last == 55.0
        assert x.latest_change == pytest.approx(-0.5)
        assert x.overall_change == pytest.approx(-0.45)
        # y appears in only two entries; both deltas still compute.
        assert trends["y"].latest_change == pytest.approx(1.0)

    def test_single_point_has_no_deltas(self):
        trends = BENCH_LEDGER.summarize(self.entries()[:1])
        assert trends[0].latest_change is None
        assert trends[0].overall_change is None

    def test_last_windows_the_ledger(self):
        trends = {
            t.name: t for t in BENCH_LEDGER.summarize(self.entries(), last=2)
        }
        assert trends["x"].first == 110.0
        assert trends["x"].points == 2

    def test_last_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="last"):
            BENCH_LEDGER.summarize(self.entries(), last=0)


class TestRender:
    def test_empty_history_hints_at_the_flag(self):
        assert "repro bench --history" in BENCH_LEDGER.render([])

    def test_table_names_cases_and_shas(self):
        entries = [
            history_entry(report(sha="aaaaaaaaaaaaaaaa", x=100.0)),
            history_entry(report(sha="bbbbbbbbbbbbbbbb", x=150.0)),
        ]
        text = BENCH_LEDGER.render(entries)
        assert "2 entries" in text
        assert "aaaaaaaaaaaa -> bbbbbbbbbbbb" in text
        assert "+50.0%" in text

    def test_deterministic(self):
        entries = [history_entry(report(x=100.0))]
        assert BENCH_LEDGER.render(entries) == BENCH_LEDGER.render(entries)
