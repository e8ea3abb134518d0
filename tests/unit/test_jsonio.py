"""Unit tests for ``repro.jsonio`` and every versioned reader built on it."""

import json
from pathlib import Path

import pytest

from repro.analysis.growth import load_growth_json
from repro.analysis.probe import ProbeReport
from repro.errors import ConfigurationError
from repro.fuzz.corpus import CorpusCase, load_case
from repro.fuzz.explain import CaseExplanation
from repro.fuzz.scenario import FuzzConfig, Scenario
from repro.jsonio import append_jsonl, expect_versioned, iter_jsonl, load_json_file
from repro.memory.semantics import RegisterModel
from repro.obs.analyze import (
    AttributionReport,
    DisagreementReport,
    attribute_steps,
    explain_disagreement,
)
from repro.obs.bench import load_bench_json
from repro.obs.events import (
    TraceEventRecord,
    event_from_json,
    event_to_json,
    read_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trend import history_entry, load_history
from repro.runtime.adaptive import AdaptiveSpec
from repro.runtime.adversary import AdversarySpec
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    ServiceFaultPlan,
    StallFault,
    WorkerKillFault,
)
from repro.runtime.scheduler import ExplicitSchedule
from repro.service.session import SessionRequest, SessionResponse
from repro.service.slo import load_report, load_slo_history
from repro.service.spans import Span, tree_from_json, tree_to_json
from repro.workloads.schedules import ScheduleSpec

REPO = Path(__file__).resolve().parents[2]


def parse_v1(data):
    return expect_versioned(data, "thing", 1, key="v", kind="thing")


class TestExpectVersioned:
    def test_returns_the_object_it_accepts(self):
        data = {"version": 3, "x": 1}
        assert expect_versioned(data, "thing", 3, key="version") is data

    def test_kind_is_checked_only_when_given(self):
        assert expect_versioned({"v": 1, "kind": "other"}, "thing", 1, key="v")
        with pytest.raises(ConfigurationError, match="kind 'other'"):
            parse_v1({"v": 1, "kind": "other"})

    def test_version_key_is_exact(self):
        with pytest.raises(ConfigurationError, match="version None"):
            expect_versioned({"v": 1}, "thing", 1, key="version")


class TestLoadJsonFile:
    def test_reads_utf8_whatever_the_content(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(json.dumps({"note": "δ→ε"}, ensure_ascii=False)
                         .encode("utf-8"))
        assert load_json_file(path, "thing") == {"note": "δ→ε"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="thing .* cannot be read"):
            load_json_file(tmp_path / "absent.json", "thing")

    def test_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot be read"):
            load_json_file(tmp_path, "thing")

    def test_non_json_raises(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_json_file(path, "thing")


class TestIterJsonl:
    def write(self, path, *lines):
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return path

    def test_streams_parsed_entries_and_skips_blank_lines(self, tmp_path):
        path = self.write(tmp_path / "l.jsonl", '{"v":1,"kind":"thing","i":0}',
                          "", '{"v":1,"kind":"thing","i":1}')
        assert [e["i"] for e in iter_jsonl(path, "ledger", parse_v1)] == [0, 1]

    def test_torn_tail_warns_and_drops(self, tmp_path):
        path = self.write(tmp_path / "l.jsonl", '{"v":1,"kind":"thing"}',
                          '{"v":1,"ki')
        with pytest.warns(RuntimeWarning, match="torn line .line 2"):
            entries = list(iter_jsonl(path, "ledger", parse_v1))
        assert len(entries) == 1

    def test_unreadable_interior_line_raises(self, tmp_path):
        path = self.write(tmp_path / "l.jsonl", '{"v":1,"ki',
                          '{"v":1,"kind":"thing"}')
        with pytest.raises(ConfigurationError, match="line 1 is unreadable"):
            list(iter_jsonl(path, "ledger", parse_v1))

    @pytest.mark.parametrize("tail", ['{"v":2,"kind":"thing"}',
                                      '{"v":1,"kind":"other"}', "[1, 2]"])
    def test_foreign_tail_raises_not_warns(self, tmp_path, tail):
        path = self.write(tmp_path / "l.jsonl", '{"v":1,"kind":"thing"}', tail)
        with pytest.raises(ConfigurationError, match="ledger .* line 2: "):
            list(iter_jsonl(path, "ledger", parse_v1))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot be read"):
            list(iter_jsonl(tmp_path / "absent.jsonl", "ledger", parse_v1))


class TestAppendJsonl:
    def test_compact_sorted_line_and_parent_created(self, tmp_path):
        path = tmp_path / "deep" / "l.jsonl"
        append_jsonl(path, {"b": 1, "a": [1, 2]})
        append_jsonl(path, {"a": "é"})
        assert path.read_bytes() == (
            b'{"a":[1,2],"b":1}\n{"a":"\\u00e9"}\n'
        )


# -- every reader that calls expect_versioned ---------------------------------
#
# Each case is (sample JSON, round trip, version key): ``round_trip(data,
# tmp_path)`` decodes ``data`` through the reader and re-encodes the
# result, writing it to a file first for the file and ledger readers.


def via_object(cls):
    return lambda data, tmp_path: cls.from_json(data).to_json()


def via_file(load, encode=lambda loaded: loaded):
    def round_trip(data, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return encode(load(path))
    return round_trip


def via_ledger(load, encode=lambda entry: entry):
    def round_trip(data, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        (entry,) = load(path)
        return encode(entry)
    return round_trip


def committed(relative):
    return lambda: json.loads((REPO / relative).read_text(encoding="utf-8"))


def scenario():
    return Scenario(
        stack="sifting", n=3, workload="binary", seed=4,
        faults=FaultPlan(crashes=(CrashFault(pid=1, after_steps=2),)),
        adversary=AdversarySpec(kind="noisy"),
        register_model=RegisterModel(kind="regular", seed=1),
    )


def metrics():
    registry = MetricsRegistry()
    registry.counter("steps", pid=0).inc(3)
    registry.histogram("latency").observe(0.5)
    return registry.to_json()


def disagreement():
    persona = {"persona": "A", "value": 0, "origin": 0}
    events = [TraceEventRecord("persona-adoption", pid=pid,
                               payload={"round": 0, **persona})
              for pid in (0, 1)]
    return explain_disagreement(events, note="rt").to_json()


def attribution():
    events = [
        TraceEventRecord("register-read", step=0, pid=0,
                         payload={"object": "s.r[0]"}),
        TraceEventRecord("register-write", step=1, pid=0,
                         payload={"object": "s.r[1]"}),
        TraceEventRecord("finish", pid=0),
    ]
    prediction = {
        "algorithm": "sifting", "n": 1, "epsilon": 0.5, "rounds": 2,
        "steps_per_round": 1, "individual_steps": 2, "relation": "exact",
    }
    return attribute_steps(events, prediction).to_json()


def explanation():
    return CaseExplanation(
        scenario=scenario(),
        status="violation",
        oracles=("agreement",),
        events=(TraceEventRecord("finish", step=3, pid=0),),
        disagreement=DisagreementReport.from_json(disagreement()),
        attribution=AttributionReport.from_json(attribution()),
        note="rt",
        trace_counters={"retained": 1},
    ).to_json()


def span_tree():
    root = Span("session", 0.0, 2.0, status="completed",
                attrs={"session_id": 7},
                children=[Span("worker-call", 0.5, 1.5, shard=1)])
    return tree_to_json(root)


VERSIONED_READERS = [
    pytest.param(lambda: AdversarySpec(kind="late", delay=2).to_json(),
                 via_object(AdversarySpec), "version", id="AdversarySpec"),
    pytest.param(lambda: FaultPlan(
        crashes=(CrashFault(pid=0, after_steps=3),),
        stalls=(StallFault(pid=1, start_step=1, duration=2),),
    ).to_json(), via_object(FaultPlan), "version", id="FaultPlan"),
    pytest.param(lambda: ServiceFaultPlan(
        worker_kills=(WorkerKillFault(shard=0, at=1.0, count=1),),
    ).to_json(), via_object(ServiceFaultPlan), "version",
        id="ServiceFaultPlan"),
    pytest.param(lambda: AdaptiveSpec("sift-killer", seed=3).to_json(),
                 via_object(AdaptiveSpec), "version", id="AdaptiveSpec"),
    pytest.param(lambda: ExplicitSchedule([0, 1, 0], n=2).to_json(),
                 via_object(ExplicitSchedule), "version",
                 id="ExplicitSchedule"),
    pytest.param(lambda: ScheduleSpec("random", 4, seed=9).to_json(),
                 via_object(ScheduleSpec), "version", id="ScheduleSpec"),
    pytest.param(lambda: RegisterModel(kind="safe", seed=2).to_json(),
                 via_object(RegisterModel), "version", id="RegisterModel"),
    pytest.param(lambda: scenario().to_json(), via_object(Scenario),
                 "version", id="Scenario"),
    pytest.param(lambda: FuzzConfig(stacks=("sifting",)).to_json(),
                 via_object(FuzzConfig), "version", id="FuzzConfig"),
    pytest.param(lambda: CorpusCase(scenario(), ("validity",)).to_json(),
                 via_object(CorpusCase), "version", id="CorpusCase"),
    pytest.param(committed("tests/corpus/case-14571d0bab330a69.json"),
                 via_file(load_case, CorpusCase.to_json), "version",
                 id="load_case"),
    pytest.param(committed("benchmarks/PROBE_ladder.json"),
                 via_object(ProbeReport), "version", id="ProbeReport"),
    pytest.param(lambda: SessionRequest(session_id=3).to_json(),
                 via_object(SessionRequest), "version", id="SessionRequest"),
    pytest.param(lambda: SessionResponse(
        session_id=3, status="completed", attempts=1, latency=0.25,
        backend="generator", result={"agreed": True},
    ).to_json(), via_object(SessionResponse), "version",
        id="SessionResponse"),
    pytest.param(metrics, via_object(MetricsRegistry), "v",
                 id="MetricsRegistry"),
    pytest.param(disagreement, via_object(DisagreementReport), "v",
                 id="DisagreementReport"),
    pytest.param(attribution, via_object(AttributionReport), "v",
                 id="AttributionReport"),
    pytest.param(explanation, via_object(CaseExplanation), "v",
                 id="CaseExplanation"),
    pytest.param(lambda: event_to_json(TraceEventRecord(
        "register-write", step=4, pid=1, payload={"object": "r", "value": 2},
    )), lambda data, tmp_path: event_to_json(event_from_json(data)), "v",
        id="event_from_json"),
    pytest.param(lambda: event_to_json(TraceEventRecord("finish", pid=0)),
                 via_ledger(read_trace_jsonl, event_to_json), "v",
                 id="read_trace_jsonl"),
    pytest.param(span_tree,
                 lambda data, tmp_path: tree_to_json(tree_from_json(data)),
                 "v", id="tree_from_json"),
    pytest.param(committed("benchmarks/BENCH_baseline.json"),
                 via_file(load_bench_json), "v", id="load_bench_json"),
    pytest.param(committed("benchmarks/GROWTH_baseline.json"),
                 via_file(load_growth_json), "v", id="load_growth_json"),
    pytest.param(committed("benchmarks/SLO_baseline.json"),
                 via_file(load_report), "v", id="load_report"),
    pytest.param(lambda: history_entry({
        "label": "t", "git_sha": "abc", "cases": {"x": {"steps_per_sec": 9}},
    }), via_ledger(load_history), "v", id="load_history"),
    pytest.param(lambda: {"v": 1, "kind": "repro-slo-history", "p50": 0.1},
                 via_ledger(load_slo_history), "v", id="load_slo_history"),
]


@pytest.mark.parametrize("sample, round_trip, key", VERSIONED_READERS)
class TestEveryVersionedReader:
    def test_non_object_is_refused(self, sample, round_trip, key, tmp_path):
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            round_trip([1, 2], tmp_path)

    def test_foreign_version_is_refused_by_name(
        self, sample, round_trip, key, tmp_path
    ):
        data = sample()
        data[key] = 99
        with pytest.raises(ConfigurationError, match="version 99"):
            round_trip(data, tmp_path)

    def test_round_trip_is_unchanged(self, sample, round_trip, key, tmp_path):
        data = sample()
        assert round_trip(data, tmp_path) == data
