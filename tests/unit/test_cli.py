"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_consensus_defaults(self):
        args = build_parser().parse_args(["consensus"])
        assert args.model == "register"
        assert args.n == 16

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conciliator", "--algorithm", "magic"])


class TestConsensusCommand:
    def test_register_model(self, capsys):
        code = main(["consensus", "--n", "6", "--seed", "7"])
        output = capsys.readouterr().out
        assert code == 0
        assert "agreement: True" in output
        assert "validity: True" in output

    def test_snapshot_model(self, capsys):
        code = main(["consensus", "--model", "snapshot", "--n", "5"])
        assert code == 0
        assert "agreement: True" in capsys.readouterr().out

    def test_linear_model(self, capsys):
        code = main(["consensus", "--model", "linear", "--n", "5",
                     "--workload", "binary"])
        assert code == 0
        assert "agreement: True" in capsys.readouterr().out

    def test_crash_adversary(self, capsys):
        code = main(["consensus", "--n", "6", "--schedule", "crash-half"])
        assert code == 0
        assert "agreement: True" in capsys.readouterr().out

    def test_unanimous_workload_decides_it(self, capsys):
        main(["consensus", "--n", "4", "--workload", "unanimous"])
        assert "decided: [0]" in capsys.readouterr().out


class TestConciliatorCommand:
    def test_reports_rate_and_interval(self, capsys):
        code = main(["conciliator", "--algorithm", "sifting", "--n", "8",
                     "--trials", "20", "--seed", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "agreement rate:" in output
        assert "95% CI" in output

    @pytest.mark.parametrize("algorithm", ["snapshot", "snapshot-maxreg",
                                           "cil-embedded", "doubling-cil"])
    def test_all_algorithms_run(self, algorithm, capsys):
        code = main(["conciliator", "--algorithm", algorithm, "--n", "6",
                     "--trials", "5"])
        assert code == 0
        assert "validity failures: 0" in capsys.readouterr().out


class TestDecayCommand:
    def test_prints_table_with_bounds(self, capsys):
        code = main(["decay", "--algorithm", "snapshot", "--n", "16",
                     "--trials", "5"])
        output = capsys.readouterr().out
        assert code == 0
        assert "paper bound" in output
        assert "round" in output


class TestDecayPlot:
    def test_plot_flag_renders_chart(self, capsys):
        code = main(["decay", "--algorithm", "sifting", "--n", "8",
                     "--trials", "4", "--plot"])
        output = capsys.readouterr().out
        assert code == 0
        assert "measured" in output
        assert "┤" in output  # the chart axis


class TestBrokenPipe:
    """``repro ... | head`` closes stdout early: exit quietly, no traceback."""

    # Closing after the first line is the ``| head -1`` race; closing at
    # once, while the command still computes, makes its first write fail.
    @pytest.mark.parametrize("read_first_line", [True, False])
    def test_closed_pipe_exits_without_traceback(self, read_first_line):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "decay", "--algorithm",
             "sifting", "--n", "16", "--trials", "8", "--plot"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        if read_first_line:
            assert process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read().decode()
        process.wait(timeout=120)
        process.stderr.close()
        assert "Traceback" not in stderr, stderr
        # Output that fit in the pipe before the close still exits 0.
        assert process.returncode in ((0, 1) if read_first_line else (1,))


class TestSearchCommand:
    def test_reports_worst_found_rate(self, capsys):
        code = main(["search", "--n", "4", "--generations", "2",
                     "--trials", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "worst-found agreement" in output
        assert "schedules evaluated" in output

    def test_snapshot_algorithm(self, capsys):
        code = main(["search", "--algorithm", "snapshot", "--n", "4",
                     "--generations", "2", "--trials", "4"])
        assert code == 0


class TestTasCommand:
    def test_reports_unique_winner(self, capsys):
        code = main(["tas", "--n", "8", "--trials", "10"])
        output = capsys.readouterr().out
        assert code == 0
        assert "unique-winner violations: 0" in output


class TestExperimentsCommand:
    def test_single_experiment_filter(self, capsys):
        code = main(["experiments", "--scale", "0.05", "--only", "E12"])
        output = capsys.readouterr().out
        assert code == 0
        assert "[E12]" in output
        assert "[E1]" not in output

    @staticmethod
    def _stub_builders(monkeypatch):
        """Replace the twenty builders with stubs that log their calls."""
        from repro.analysis import paper

        called = []

        def stub(experiment_id):
            def build(scale):
                called.append(experiment_id)
                return paper.ExperimentTable(experiment_id, "stub", ["x"],
                                             [[1]])
            return build

        monkeypatch.setattr(paper, "ALL_EXPERIMENTS",
                            tuple(stub(f"E{index}") for index in range(1, 21)))
        return called

    def test_only_builds_the_selected_tables(self, monkeypatch, capsys):
        called = self._stub_builders(monkeypatch)
        assert main(["experiments", "--only", "e12"]) == 0
        assert called == ["E12"]
        assert main(["experiments", "--only", "E6, E1"]) == 0
        assert called == ["E12", "E1", "E6"]
        assert "[E6]" in capsys.readouterr().out

    def test_unknown_id_is_refused_before_anything_runs(self, monkeypatch,
                                                        capsys):
        called = self._stub_builders(monkeypatch)
        assert main(["experiments", "--only", "E1,E99"]) == 2
        assert called == []
        assert "unknown experiment id(s) E99" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-5"])
    def test_bad_scale_is_refused_before_anything_runs(
        self, monkeypatch, capsys, scale
    ):
        called = self._stub_builders(monkeypatch)
        assert main(["experiments", "--only", "E2", "--scale", scale]) == 2
        assert called == []
        assert "--scale must be finite and > 0" in capsys.readouterr().err


class TestParallelFlags:
    def test_defaults_are_serial(self):
        for command in ("conciliator", "decay", "experiments"):
            args = build_parser().parse_args([command])
            assert args.workers == 1
            assert args.chunk_size is None

    def test_conciliator_with_workers_matches_serial(self, capsys):
        command = ["conciliator", "--algorithm", "sifting", "--n", "6",
                   "--trials", "12", "--seed", "9"]
        assert main(command) == 0
        serial_output = capsys.readouterr().out
        assert main(command + ["--workers", "2", "--chunk-size", "3"]) == 0
        parallel_output = capsys.readouterr().out
        assert parallel_output == serial_output

    def test_decay_accepts_workers(self, capsys):
        code = main(["decay", "--algorithm", "sifting", "--n", "8",
                     "--trials", "4", "--workers", "2"])
        assert code == 0
        assert "paper bound" in capsys.readouterr().out

    def test_negative_workers_is_a_configuration_error(self, capsys):
        code = main(["conciliator", "--n", "4", "--trials", "4",
                     "--workers", "-2"])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["conciliator", "--n", "4", "--trials", "5"],
        ["conciliator", "--n", "4", "--trials", "5", "--workers", "2"],
        ["fuzz", "--trials", "3", "--no-shrink"],
    ])
    @pytest.mark.parametrize("chunk_size", ["0", "-3"])
    def test_bad_chunk_size_is_a_configuration_error(
        self, capsys, command, chunk_size
    ):
        assert main(command + ["--chunk-size", chunk_size]) == 2
        assert "chunk_size must be >= 1" in capsys.readouterr().err


class TestFuzzCommand:
    def test_list_stacks(self, capsys):
        code = main(["fuzz", "--list-stacks"])
        output = capsys.readouterr().out
        assert code == 0
        assert "sifting" in output
        assert "planted-validity" in output

    def test_requires_a_sizing_mode(self, capsys):
        code = main(["fuzz"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_rejects_both_sizing_modes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--trials", "5",
                                       "--time-budget", "1"])

    def test_honest_campaign_exits_zero(self, capsys):
        code = main(["fuzz", "--trials", "8", "--seed", "5",
                     "--stacks", "sifting,flag-ac"])
        output = capsys.readouterr().out
        assert code == 0
        assert "ok" in output
        assert "trials=8" in output

    def test_planted_campaign_exits_one_and_writes_corpus(self, tmp_path,
                                                          capsys):
        code = main(["fuzz", "--trials", "6", "--seed", "2",
                     "--stacks", "planted-validity", "--no-shrink",
                     "--corpus", str(tmp_path / "corpus")])
        output = capsys.readouterr().out
        assert code == 1
        assert "VIOLATIONS FOUND" in output
        assert list((tmp_path / "corpus").glob("case-*.json"))

    def test_json_report(self, capsys):
        import json

        code = main(["fuzz", "--trials", "4", "--seed", "5",
                     "--stacks", "sifting", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 4
        assert report["ok"] is True

    def test_unknown_stack_is_a_configuration_error(self, capsys):
        code = main(["fuzz", "--trials", "2", "--stacks", "nope"])
        assert code == 2
        assert "unknown stack" in capsys.readouterr().err


class TestBenchCommand:
    @staticmethod
    def _write_report(path, cases):
        import json

        from repro.obs.bench import BENCH_SCHEMA_VERSION

        report = {
            "v": BENCH_SCHEMA_VERSION,
            "label": "test", "quick": True, "seed": 1,
            "created_unix": 0.0, "git_sha": "deadbeef", "env": {},
            "elapsed_seconds": 0.0,
            "cases": {
                name: {
                    "trials": 1, "n": 2, "total_steps": 10,
                    "elapsed_seconds": 0.1, "steps_per_sec": sps,
                    "latency_p50_s": 0.1, "latency_p95_s": 0.1,
                    "metrics": None,
                }
                for name, sps in cases.items()
            },
        }
        path.write_text(json.dumps(report))
        return path

    def test_parser_defaults(self):
        from repro.obs.bench import DEFAULT_THRESHOLD

        args = build_parser().parse_args(["bench"])
        assert args.label == "local"
        assert args.seed == 2012
        assert not args.quick
        compare = build_parser().parse_args(["bench", "compare", "a", "b"])
        assert compare.threshold == DEFAULT_THRESHOLD

    def test_quick_single_suite_run(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_unit.json"
        code = main(["bench", "--quick", "--suite", "consensus",
                     "--label", "unit", "--seed", "3", "--json",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["label"] == "unit"
        assert list(report["cases"]) == ["consensus"]
        # Progress and the written-path note stay on stderr so stdout is
        # pure JSON for piping.
        assert "wrote" in captured.err
        assert out.exists()

    def test_unknown_suite_exits_two(self, capsys):
        code = main(["bench", "--quick", "--suite", "nope"])
        assert code == 2
        assert "unknown bench case" in capsys.readouterr().err

    def test_compare_ok_exits_zero(self, tmp_path, capsys):
        old = self._write_report(tmp_path / "old.json", {"alpha": 1000.0})
        new = self._write_report(tmp_path / "new.json", {"alpha": 950.0})
        code = main(["bench", "compare", str(old), str(new)])
        output = capsys.readouterr().out
        assert code == 0
        assert "all cases within bounds" in output

    def test_compare_regression_exits_one(self, tmp_path, capsys):
        import json

        old = self._write_report(tmp_path / "old.json", {"alpha": 1000.0})
        new = self._write_report(tmp_path / "new.json", {"alpha": 100.0})
        code = main(["bench", "compare", str(old), str(new),
                     "--threshold", "0.4", "--json"])
        assert code == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert verdict["cases"][0]["regressed"] is True

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        old = self._write_report(tmp_path / "old.json", {"alpha": 1000.0})
        code = main(["bench", "compare", str(old),
                     str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot be read" in capsys.readouterr().err

    def test_compare_bad_threshold_exits_two(self, tmp_path, capsys):
        old = self._write_report(tmp_path / "old.json", {"alpha": 1000.0})
        code = main(["bench", "compare", str(old), str(old),
                     "--threshold", "1.5"])
        assert code == 2
        assert "threshold" in capsys.readouterr().err


class TestReplayCommand:
    def test_empty_corpus_is_ok(self, tmp_path, capsys):
        code = main(["replay", "--corpus", str(tmp_path)])
        assert code == 0
        assert "no corpus cases" in capsys.readouterr().out

    def test_replays_written_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--trials", "6", "--seed", "2",
                     "--stacks", "planted-validity", "--no-shrink",
                     "--corpus", str(corpus)]) == 1
        capsys.readouterr()
        code = main(["replay", "--corpus", str(corpus)])
        output = capsys.readouterr().out
        assert code == 0
        assert "0 failed to reproduce" in output

    def test_fabricated_case_that_cannot_reproduce_fails(self, tmp_path,
                                                         capsys):
        from repro.fuzz import CorpusCase, Scenario, save_case
        from repro.workloads.schedules import ScheduleSpec

        save_case(
            CorpusCase(
                scenario=Scenario(
                    stack="sifting", n=2, workload="binary", seed=1,
                    schedule=ScheduleSpec("round-robin", 2),
                ),
                oracles=("validity",),
            ),
            tmp_path,
        )
        code = main(["replay", "--corpus", str(tmp_path)])
        output = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in output


class TestExplainCommand:
    @staticmethod
    def _write_agreement_case(tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--trials", "40", "--seed", "2012",
                     "--stacks", "planted-agreement", "--max-n", "4",
                     "--no-shrink", "--corpus", str(corpus)]) == 1
        cases = list(corpus.glob("case-*.json"))
        assert cases
        return cases[0]

    def test_renders_disagreement_and_attribution(self, tmp_path, capsys):
        case = self._write_agreement_case(tmp_path)
        capsys.readouterr()
        code = main(["explain", str(case)])
        output = capsys.readouterr().out
        assert code == 0
        assert "DISAGREEMENT" in output
        assert "divergence round" in output
        assert "step attribution" in output

    def test_json_and_out_write_versioned_explanation(self, tmp_path, capsys):
        import json

        from repro.fuzz.explain import EXPLAIN_SCHEMA_VERSION

        case = self._write_agreement_case(tmp_path)
        capsys.readouterr()
        out = tmp_path / "case.explain.json"
        trace = tmp_path / "case.trace.jsonl"
        code = main(["explain", str(case), "--json",
                     "--out", str(out), "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["v"] == EXPLAIN_SCHEMA_VERSION
        assert payload["disagreement"]["diverged"] is True
        assert out.exists() and trace.exists()
        # The written file is the same canonical JSON as stdout.
        assert json.loads(out.read_text()) == payload

    def test_missing_case_exits_two(self, tmp_path, capsys):
        code = main(["explain", str(tmp_path / "absent.json")])
        assert code == 2
        assert capsys.readouterr().err


class TestTimelineCommand:
    def test_from_case_renders_chart_and_html(self, tmp_path, capsys):
        case = TestExplainCommand._write_agreement_case(tmp_path)
        capsys.readouterr()
        html = tmp_path / "t.html"
        code = main(["timeline", "--case", str(case), "--html", str(html)])
        captured = capsys.readouterr()
        assert code == 0
        assert "legend:" in captured.out
        assert "p0" in captured.out
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_from_trace_file(self, tmp_path, capsys):
        case = TestExplainCommand._write_agreement_case(tmp_path)
        trace = tmp_path / "t.jsonl"
        assert main(["explain", str(case), "--trace", str(trace)]) == 0
        capsys.readouterr()
        code = main(["timeline", "--trace", str(trace), "--width", "80"])
        output = capsys.readouterr().out
        assert code == 0
        for line in output.splitlines():
            assert len(line) <= 80

    def test_requires_case_or_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["timeline"])

    def test_narrow_width_exits_two(self, tmp_path, capsys):
        case = TestExplainCommand._write_agreement_case(tmp_path)
        capsys.readouterr()
        code = main(["timeline", "--case", str(case), "--width", "10"])
        assert code == 2
        assert "width" in capsys.readouterr().err


class TestReplayExplain:
    def test_explain_dir_requires_explain_flag(self, tmp_path, capsys):
        code = main(["replay", "--corpus", str(tmp_path),
                     "--explain-dir", str(tmp_path / "out")])
        assert code == 2
        assert "--explain" in capsys.readouterr().err

    def test_explain_writes_reports_and_traces(self, tmp_path, capsys):
        case = TestExplainCommand._write_agreement_case(tmp_path)
        capsys.readouterr()
        out = tmp_path / "explanations"
        code = main(["replay", "--corpus", str(case.parent),
                     "--explain", "--explain-dir", str(out)])
        output = capsys.readouterr().out
        assert code == 0
        assert "disagreement: diverged at round" in output
        assert list(out.glob("*.explain.json"))
        assert list(out.glob("*.trace.jsonl"))


class TestFuzzExplain:
    def test_explain_requires_corpus(self, capsys):
        code = main(["fuzz", "--trials", "2", "--explain"])
        assert code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_explain_writes_explanations_next_to_cases(self, tmp_path,
                                                       capsys):
        corpus = tmp_path / "corpus"
        code = main(["fuzz", "--trials", "40", "--seed", "2012",
                     "--stacks", "planted-agreement", "--max-n", "4",
                     "--no-shrink", "--corpus", str(corpus), "--explain"])
        capsys.readouterr()
        assert code == 1
        explanations = list(corpus.glob("case-*.explain.json"))
        cases = [path for path in corpus.glob("case-*.json")
                 if path not in explanations]
        assert cases and len(explanations) == len(cases)
        # The explanation files must not confuse corpus loading: replay
        # sees only the cases.
        assert main(["replay", "--corpus", str(corpus)]) == 0


class TestBenchTrendCommand:
    @staticmethod
    def _seed_history(path, values):
        from repro.obs.trend import append_history

        for index, value in enumerate(values):
            append_history({
                "label": "t", "quick": True, "seed": 1,
                "git_sha": f"sha{index}", "created_unix": index,
                "cases": {"alpha": {"steps_per_sec": value}},
            }, path)

    def test_parser_history_flag_default_and_const(self):
        assert build_parser().parse_args(["bench"]).history is None
        args = build_parser().parse_args(["bench", "--history"])
        assert args.history == "benchmarks/BENCH_history.jsonl"
        args = build_parser().parse_args(["bench", "--history", "x.jsonl"])
        assert args.history == "x.jsonl"

    def test_trend_renders_table(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        self._seed_history(history, [100.0, 150.0])
        code = main(["bench", "trend", "--history", str(history)])
        output = capsys.readouterr().out
        assert code == 0
        assert "alpha" in output
        assert "+50.0%" in output

    def test_trend_json(self, tmp_path, capsys):
        import json

        history = tmp_path / "h.jsonl"
        self._seed_history(history, [100.0, 150.0, 75.0])
        code = main(["bench", "trend", "--history", str(history),
                     "--last", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 3
        case = payload["cases"][0]
        assert case["name"] == "alpha"
        assert case["latest_change"] == pytest.approx(-0.5)

    def test_trend_empty_history_hints(self, tmp_path, capsys):
        code = main(["bench", "trend",
                     "--history", str(tmp_path / "none.jsonl")])
        assert code == 0
        assert "repro bench --history" in capsys.readouterr().out

    def test_bench_run_appends_history(self, tmp_path, capsys):
        from repro.obs.trend import load_history

        history = tmp_path / "h.jsonl"
        code = main(["bench", "--quick", "--suite", "consensus",
                     "--label", "unit", "--seed", "3",
                     "--out", str(tmp_path / "BENCH_unit.json"),
                     "--history", str(history)])
        captured = capsys.readouterr()
        assert code == 0
        assert "history" in captured.err
        entries = load_history(history)
        assert len(entries) == 1
        assert "consensus" in entries[0]["cases"]

    def test_compare_json_carries_percent_deltas(self, tmp_path, capsys):
        import json

        old = TestBenchCommand._write_report(
            tmp_path / "old.json", {"alpha": 1000.0}
        )
        new = TestBenchCommand._write_report(
            tmp_path / "new.json", {"alpha": 900.0}
        )
        code = main(["bench", "compare", str(old), str(new), "--json"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["cases"][0]["change_pct"] == pytest.approx(-10.0)

    def test_compare_help_states_exit_contract(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "compare", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "Exit codes" in text
        assert "2 = usage or configuration error" in text


class TestBackendFlags:
    def test_backend_defaults_to_generator(self):
        assert build_parser().parse_args(["conciliator"]).backend == "generator"
        assert build_parser().parse_args(["decay"]).backend == "generator"

    def test_backend_choices_cover_all_backends(self):
        from repro.runtime.vectorized import BACKENDS

        for backend in BACKENDS:
            args = build_parser().parse_args(
                ["conciliator", "--backend", backend]
            )
            assert args.backend == backend

    def test_conciliator_vectorized_run(self, capsys):
        pytest.importorskip("numpy")
        code = main(["conciliator", "--algorithm", "sifting", "--n", "8",
                     "--trials", "200", "--seed", "3", "--schedule",
                     "permuted", "--backend", "vectorized"])
        output = capsys.readouterr().out
        assert code == 0
        assert "backend=vectorized" in output
        assert "agreement rate:" in output

    def test_conciliator_oracle_backend_matches_generator(self, capsys):
        pytest.importorskip("numpy")
        command = ["conciliator", "--algorithm", "snapshot", "--n", "5",
                   "--trials", "10", "--seed", "7", "--schedule", "permuted"]
        assert main(command) == 0
        generator_output = capsys.readouterr().out
        assert main(command + ["--backend", "vectorized-oracle"]) == 0
        oracle_output = capsys.readouterr().out
        # Identical stats; only the backend= note differs.
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("algorithm=")]
        assert strip(oracle_output) == strip(generator_output)

    def test_decay_vectorized_run(self, capsys):
        pytest.importorskip("numpy")
        code = main(["decay", "--algorithm", "sifting", "--n", "8",
                     "--trials", "64", "--schedule", "permuted",
                     "--backend", "vectorized"])
        output = capsys.readouterr().out
        assert code == 0
        assert "paper bound" in output

    def test_vectorized_rejects_non_lockstep_schedule(self, capsys):
        pytest.importorskip("numpy")
        code = main(["conciliator", "--n", "4", "--trials", "4",
                     "--schedule", "random", "--backend", "vectorized"])
        assert code == 2
        assert "not lockstep" in capsys.readouterr().err

    def test_new_schedules_work_on_generator_backend(self, capsys):
        for family in ("permuted", "interleaved"):
            code = main(["conciliator", "--algorithm", "snapshot", "--n", "4",
                         "--trials", "4", "--schedule", family])
            assert code == 0
            assert "agreement rate:" in capsys.readouterr().out


class TestGrowthCommand:
    def test_growth_runs_and_writes_report(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        code = main(["growth", "--max-n", "10", "--label", "t",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        # Separation needs several decades; a single-decade run reports
        # its curves but fails the self-checks — exit 1, file still written.
        assert code == 1
        assert "checks=FAILED" in captured.out
        assert (tmp_path / "GROWTH_t.json").exists()

    def test_growth_baseline_gate_matches_itself(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        main(["growth", "--max-n", "100", "--label", "a",
              "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["growth", "--max-n", "100", "--label", "b",
                     "--baseline", str(tmp_path / "GROWTH_a.json")])
        captured = capsys.readouterr()
        assert "byte for byte" in captured.err
        # Both runs fail only the separation self-check (two decades); the
        # byte gate itself passed, proving label-independent determinism.
        assert "diverges" not in captured.err

    def test_growth_baseline_gate_catches_divergence(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        main(["growth", "--max-n", "100", "--label", "a",
              "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["growth", "--max-n", "100", "--seed", "999",
                     "--baseline", str(tmp_path / "GROWTH_a.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "diverges" in captured.err
