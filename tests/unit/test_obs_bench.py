"""Unit tests for the bench harness: reports, files, and the compare gate."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_THRESHOLD,
    SUITE_NAMES,
    VECTORIZED_SUITE_NAMES,
    compare_bench,
    load_bench_json,
    run_bench_suite,
    write_bench_json,
)


def _report(label="test", cases=None):
    """A structurally valid bench report without running anything."""
    cases = cases if cases is not None else {"alpha": 1000.0, "beta": 2000.0}
    return {
        "v": BENCH_SCHEMA_VERSION,
        "label": label,
        "quick": True,
        "seed": 1,
        "created_unix": 0.0,
        "git_sha": "deadbeef",
        "env": {},
        "elapsed_seconds": 0.0,
        "cases": {
            name: {
                "trials": 3,
                "n": 4,
                "total_steps": 100,
                "elapsed_seconds": 0.1,
                "steps_per_sec": sps,
                "latency_p50_s": 0.01,
                "latency_p95_s": 0.02,
                "metrics": None,
            }
            for name, sps in cases.items()
        },
    }


class TestSuiteRun:
    def test_single_case_quick_run(self):
        report = run_bench_suite(
            label="unit", quick=True, seed=3, suites=["consensus"]
        )
        assert report["v"] == BENCH_SCHEMA_VERSION
        assert report["label"] == "unit"
        assert report["quick"] is True
        assert list(report["cases"]) == ["consensus"]
        case = report["cases"]["consensus"]
        assert case["steps_per_sec"] > 0
        assert case["total_steps"] > 0
        assert case["latency_p50_s"] <= case["latency_p95_s"]
        assert case["metrics"]["v"] == 1
        assert case["metrics"]["counters"]["run.count"] == case["trials"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown bench case"):
            run_bench_suite(suites=["no-such-case"])

    def test_suite_names_cover_required_cases(self):
        for required in (
            "simulator-step", "snapshot-conciliator", "sifting-conciliator",
            "cil-embedded", "consensus",
        ):
            assert required in SUITE_NAMES


class TestBenchFiles:
    def test_write_to_directory_uses_canonical_name(self, tmp_path):
        path = write_bench_json(_report(label="ci"), tmp_path)
        assert path.name == "BENCH_ci.json"
        assert load_bench_json(path)["label"] == "ci"

    def test_write_creates_parent_dirs(self, tmp_path):
        path = write_bench_json(_report(), tmp_path / "deep" / "out.json")
        assert load_bench_json(path)["v"] == BENCH_SCHEMA_VERSION

    def test_trailing_slash_means_directory_and_creates_it(self, tmp_path):
        path = write_bench_json(_report(label="x"), f"{tmp_path}/new-dir/")
        assert path.name == "BENCH_x.json"
        assert path.parent.name == "new-dir"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot be read"):
            load_bench_json(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_bench_json(path)

    def test_load_foreign_version(self, tmp_path):
        report = _report()
        report["v"] = BENCH_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(report))
        with pytest.raises(ConfigurationError, match="unsupported bench"):
            load_bench_json(path)


class TestCompareGate:
    def test_within_threshold_is_ok(self):
        old = _report(cases={"alpha": 1000.0})
        new = _report(cases={"alpha": 900.0})  # -10%
        comparison = compare_bench(old, new, threshold=0.4)
        assert comparison.ok
        assert comparison.regressions == []
        (case,) = comparison.cases
        assert case.change == pytest.approx(-0.1)

    def test_regression_past_threshold_fails(self):
        old = _report(cases={"alpha": 1000.0, "beta": 1000.0})
        new = _report(cases={"alpha": 500.0, "beta": 990.0})  # -50%, -1%
        comparison = compare_bench(old, new, threshold=0.4)
        assert not comparison.ok
        assert [case.name for case in comparison.regressions] == ["alpha"]

    def test_improvement_never_fails(self):
        old = _report(cases={"alpha": 1000.0})
        new = _report(cases={"alpha": 5000.0})
        assert compare_bench(old, new, threshold=0.01).ok

    def test_boundary_is_inclusive_of_threshold(self):
        old = _report(cases={"alpha": 1000.0})
        exactly = _report(cases={"alpha": 600.0})  # change == -threshold
        assert compare_bench(old, exactly, threshold=0.4).ok
        past = _report(cases={"alpha": 599.0})
        assert not compare_bench(old, past, threshold=0.4).ok

    def test_missing_case_in_new_is_a_regression(self):
        old = _report(cases={"alpha": 1000.0, "beta": 1000.0})
        new = _report(cases={"alpha": 1000.0})
        comparison = compare_bench(old, new)
        assert not comparison.ok
        (missing,) = comparison.regressions
        assert missing.name == "beta"
        assert "missing" in missing.note

    def test_new_only_case_is_informational(self):
        old = _report(cases={"alpha": 1000.0})
        new = _report(cases={"alpha": 1000.0, "gamma": 10.0})
        comparison = compare_bench(old, new)
        assert comparison.ok
        names = {case.name for case in comparison.cases}
        assert "gamma" in names

    def test_threshold_must_be_a_fraction(self):
        old, new = _report(), _report()
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError, match="threshold"):
                compare_bench(old, new, threshold=bad)

    def test_default_threshold_matches_ci_gate(self):
        assert DEFAULT_THRESHOLD == 0.4

    def test_change_pct_mirrors_change_in_json(self):
        old = _report(cases={"alpha": 1000.0, "beta": 1000.0})
        new = _report(cases={"alpha": 900.0})
        comparison = compare_bench(old, new, threshold=0.4)
        by_name = {case.name: case for case in comparison.cases}
        assert by_name["alpha"].change_pct == pytest.approx(-10.0)
        assert by_name["beta"].change_pct is None  # missing: no delta
        data = comparison.to_json()
        json_by_name = {case["name"]: case for case in data["cases"]}
        assert json_by_name["alpha"]["change_pct"] == pytest.approx(-10.0)
        assert json_by_name["beta"]["change_pct"] is None

    def test_json_and_render_forms(self):
        comparison = compare_bench(
            _report(cases={"alpha": 1000.0}),
            _report(cases={"alpha": 100.0}),
        )
        data = comparison.to_json()
        assert data["ok"] is False
        assert data["cases"][0]["name"] == "alpha"
        rendered = comparison.render()
        assert "alpha" in rendered
        assert "REGRESSED" in rendered


class TestVectorizedCases:
    def test_vectorized_cases_registered(self):
        for name in VECTORIZED_SUITE_NAMES:
            assert name in SUITE_NAMES

    def test_vectorized_quick_run(self):
        pytest.importorskip("numpy")
        report = run_bench_suite(
            label="unit", quick=True, seed=3,
            suites=["vectorized-sifting"],
        )
        case = report["cases"]["vectorized-sifting"]
        assert case["steps_per_sec"] > 0
        assert case["total_steps"] > 0
        assert case["metrics"] is None  # batched kernels expose no hooks

    def test_default_sweep_skips_vectorized_without_numpy(self, monkeypatch):
        import repro.obs.bench as bench_module

        monkeypatch.setattr(bench_module, "_numpy_available", lambda: False)
        selected = bench_module._select_cases(None)
        assert not any(name in selected for name in VECTORIZED_SUITE_NAMES)
        assert "simulator-step" in selected

    def test_explicit_vectorized_request_kept_without_numpy(self, monkeypatch):
        # An explicit request is honoured even without NumPy, so the run
        # fails loudly with the backend's install hint instead of silently
        # benching nothing.  (The actual failure is exercised in the
        # no-numpy subprocess test in tests/unit/test_numpy_state.py.)
        import repro.obs.bench as bench_module

        monkeypatch.setattr(bench_module, "_numpy_available", lambda: False)
        selected = bench_module._select_cases(["vectorized-sifting"])
        assert selected == ["vectorized-sifting"]

    def test_select_rejects_unknown_names(self):
        import repro.obs.bench as bench_module

        with pytest.raises(ConfigurationError, match="unknown bench case"):
            bench_module._select_cases(["no-such-case"])


class TestCommittedBaseline:
    """Guards the committed artifact the CI perf gate compares against."""

    BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_baseline.json"

    def test_baseline_contains_all_cases(self):
        report = load_bench_json(self.BASELINE)
        assert set(SUITE_NAMES) <= set(report["cases"])

    def test_vectorized_baseline_speedup_is_at_least_50x(self):
        """ISSUE acceptance bar: the committed baseline must show the
        vectorized cases >= 50x the per-step simulator's throughput.
        (CI re-measures a fresh run with a looser 20x bar to absorb
        machine noise; this pin keeps the committed artifact honest.)"""
        report = load_bench_json(self.BASELINE)
        simulator = report["cases"]["simulator-step"]["steps_per_sec"]
        for name in VECTORIZED_SUITE_NAMES:
            vectorized = report["cases"][name]["steps_per_sec"]
            assert vectorized >= 50 * simulator, (
                f"{name}: {vectorized:.0f} steps/s is "
                f"{vectorized / simulator:.1f}x simulator-step ({simulator:.0f})"
            )


class TestNewCaseReporting:
    def test_new_cases_listed_and_not_gating(self):
        old = _report(cases={"alpha": 1000.0})
        new = _report(cases={"alpha": 1000.0, "gamma": 10.0, "delta": 5.0})
        comparison = compare_bench(old, new)
        assert comparison.ok
        assert {case.name for case in comparison.new_cases} == {"gamma", "delta"}
        assert not comparison.regressions

    def test_render_marks_new_cases_and_suggests_refresh(self):
        comparison = compare_bench(
            _report(cases={"alpha": 1000.0}),
            _report(cases={"alpha": 1000.0, "gamma": 10.0}),
        )
        rendered = comparison.render()
        assert "NEW" in rendered
        assert "gamma" in rendered
        assert "refresh the baseline" in rendered

    def test_regression_still_fails_alongside_new_case(self):
        comparison = compare_bench(
            _report(cases={"alpha": 1000.0}),
            _report(cases={"alpha": 100.0, "gamma": 10.0}),
        )
        assert not comparison.ok
        assert {case.name for case in comparison.new_cases} == {"gamma"}
