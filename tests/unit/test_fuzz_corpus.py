"""Unit tests for the regression corpus format and replay."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.jsonio import dumps, write_json
from repro.fuzz import (
    CorpusCase,
    Scenario,
    case_filename,
    load_case,
    load_corpus,
    replay_case,
    save_case,
)
from repro.workloads.schedules import ScheduleSpec


def make_case(note="", seed=3, oracles=("validity",)):
    return CorpusCase(
        scenario=Scenario(
            stack="sifting", n=2, workload="binary", seed=seed,
            schedule=ScheduleSpec("round-robin", 2),
        ),
        oracles=tuple(oracles),
        note=note,
    )


class TestCorpusCase:
    def test_round_trip(self):
        case = make_case(note="found by trial 7")
        assert CorpusCase.from_json(case.to_json()) == case

    def test_oracles_are_sorted_and_required(self):
        case = make_case(oracles=("wait-freedom", "agreement"))
        assert case.oracles == ("agreement", "wait-freedom")
        with pytest.raises(ConfigurationError, match="oracle"):
            make_case(oracles=())

    def test_unknown_version_rejected(self):
        data = make_case().to_json()
        data["version"] = 2
        with pytest.raises(ConfigurationError, match="version"):
            CorpusCase.from_json(data)

    def test_wrong_kind_rejected(self):
        data = make_case().to_json()
        data["kind"] = "something-else"
        with pytest.raises(ConfigurationError, match="kind"):
            CorpusCase.from_json(data)

    def test_canonical_bytes_are_stable_and_parse(self, tmp_path):
        case = make_case()
        path = save_case(case, tmp_path)
        assert path.read_text(encoding="utf-8") == dumps(case.to_json())
        assert CorpusCase.from_json(json.loads(path.read_bytes())) == case

    def test_identity_excludes_provenance_note(self):
        a, b = make_case(note="campaign A"), make_case(note="campaign B")
        assert a.identity_bytes() == b.identity_bytes()
        assert case_filename(a) == case_filename(b)
        assert case_filename(a) != case_filename(make_case(seed=4))


class TestCorpusIo:
    def test_save_is_idempotent(self, tmp_path):
        case = make_case()
        first = save_case(case, tmp_path)
        stamp = first.read_bytes()
        second = save_case(case, tmp_path)
        assert first == second
        assert second.read_bytes() == stamp
        assert len(list(tmp_path.glob("case-*.json"))) == 1

    def test_load_corpus_sorted_and_round_trips(self, tmp_path):
        cases = [make_case(seed=seed) for seed in (9, 4, 6)]
        for case in cases:
            save_case(case, tmp_path)
        loaded = load_corpus(tmp_path)
        assert [path.name for path, _ in loaded] == sorted(
            path.name for path, _ in loaded
        )
        assert {case for _, case in loaded} == set(cases)

    def test_load_corpus_missing_dir_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_load_case_rejects_garbage(self, tmp_path):
        path = tmp_path / "case-bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not JSON"):
            load_case(path)

    def test_load_case_refuses_unreadable_paths(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot be read"):
            load_case(tmp_path / "case-absent.json")
        with pytest.raises(ConfigurationError, match="cannot be read"):
            load_case(tmp_path)

    def test_load_case_reads_utf8(self, tmp_path):
        case = make_case(note="δ-late trial → ε")
        path = tmp_path / "case-utf8.json"
        write_json(case.to_json(), path)
        assert load_case(path) == case


class TestReplay:
    def test_honest_case_does_not_reproduce(self):
        # An honest scenario recorded with a bogus expected oracle must
        # come back reproduced=False with that oracle listed as missing.
        report = replay_case(make_case(oracles=("validity",)))
        assert not report.reproduced
        assert report.missing == ("validity",)
        assert report.outcome.status == "ok"

    def test_planted_case_reproduces(self):
        from repro.fuzz import run_scenario

        for seed in range(40):
            scenario = Scenario(
                stack="planted-validity", n=2, workload="distinct", seed=seed,
                schedule=ScheduleSpec("round-robin", 2),
            )
            if "validity" in run_scenario(scenario).oracle_names:
                break
        else:  # pragma: no cover - probability < 2^-40
            pytest.fail("no reproducing seed found")
        report = replay_case(CorpusCase(scenario=scenario,
                                        oracles=("validity",)))
        assert report.reproduced
        assert report.matched == ("validity",)
