"""Command-line interface: run protocols and experiments from a shell.

Installed as ``python -m repro``.  Subcommands:

- ``consensus``    run one consensus execution and print the outcome
- ``conciliator``  estimate a conciliator's agreement rate and step counts
- ``decay``        print a survivor-decay table against the paper's bound
- ``tas``          run test-and-set trials and report the winner statistics
- ``experiments``  regenerate the paper's experiment tables (E1-E20)
- ``probe``        tabulate agreement vs adversary-ladder rung and
  register model (oblivious < noisy < late-δ < adaptive; atomic/regular/safe)
- ``fuzz``         chaos-fuzz random protocol/schedule/fault scenarios
- ``replay``       re-run the regression corpus and report reproduction
- ``explain``      replay one corpus case under a full trace and print
  its persona-lineage / disagreement / step-attribution analysis
- ``timeline``     render a per-process ASCII (or HTML) timeline of a
  corpus case or a saved trace JSONL
- ``bench``        run the curated perf suite, write ``BENCH_<label>.json``
- ``bench compare`` gate one bench report against another (CI perf gate)
- ``bench trend``  summarize the append-only BENCH_history.jsonl ledger
- ``growth``       sweep n over decades to 10^6 and emit the deterministic
  asymptotic separation curves (``GROWTH_<label>.json``); ``--baseline``
  byte-gates the result against a committed report (CI scale-smoke)
- ``serve``        expose consensus rounds as sessions over a JSON-lines
  TCP endpoint (the consensus-as-a-service front end)
- ``loadtest``     replay a seeded open-loop traffic profile against the
  service on a virtual-time loop and emit a deterministic SLO report
  (``--spans DIR`` persists every session's span tree)
- ``slo trend``    summarize the append-only SLO_history.jsonl ledger
- ``slo waterfall`` render one session's span tree as an ASCII or HTML
  waterfall chart from a ``loadtest --spans`` file

Every command takes ``--seed`` and is fully reproducible; schedules come
from the named adversary families in ``repro.workloads.schedules``.  Trial
sweeps accept ``--workers``/``--chunk-size`` to shard trials across
processes — results are bit-identical to a serial run for any worker count
(``--workers 0`` uses every available CPU).  Long sweeps accept
``--checkpoint PATH`` to journal finished trial chunks and ``--resume`` to
continue a killed sweep from that journal with bit-identical statistics.
The ``conciliator`` and ``decay`` sweeps additionally accept
``--backend vectorized`` to run trials on the NumPy mass-trial backend
(orders of magnitude faster; lockstep ``--schedule`` families only) and
``--backend vectorized-oracle`` for the generator-stream replay mode used
by the differential test suite.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

from repro import catalog
from repro.analysis.experiments import decay_series, run_conciliator_trials
from repro.analysis.tables import render_table
from repro.core.consensus import (
    register_consensus,
    run_consensus,
    snapshot_consensus,
)
from repro.errors import ReproError
from repro.fuzz.stacks import service_chaos_names
from repro.runtime.adaptive import ADAPTIVE_FAMILIES
from repro.runtime.parallel import parallelism
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.runtime.vectorized import BACKENDS
from repro.service.loadgen import PROFILES
from repro.workloads.inputs import INPUT_WORKLOADS, make_input
from repro.workloads.schedules import (
    ALL_SCHEDULE_FAMILIES,
    PARTIAL_FAMILIES,
    make_schedule,
)
from repro.workloads.search import SEARCH_STRATEGIES

__all__ = ["main", "build_parser"]


def _add_parallel_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the trial-sharding knobs shared by sweep subcommands."""
    subparser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the trial sweep; 0 = all CPUs, "
             "1 = in-process (default). Results are identical either way.",
    )
    subparser.add_argument(
        "--chunk-size", type=int, default=None,
        help="trials dispatched per work unit (default: auto). "
             "Affects scheduling only, never results.",
    )


def _add_model_arguments(
    subparser: argparse.ArgumentParser, *, adversary_kinds: Sequence[str]
) -> None:
    """Attach the model-ladder knobs shared by sweep subcommands."""
    subparser.add_argument(
        "--register-model", choices=["atomic", "regular", "safe"],
        default=None, metavar="KIND",
        help="declared register semantics: atomic (default), regular, or "
             "safe; weakened reads are resolved by a seeded deterministic "
             "policy (generator backend only)",
    )
    subparser.add_argument(
        "--adversary", choices=list(adversary_kinds), default=None,
        help="replace the oblivious schedule with a choosing adversary: a "
             "ladder rung (noisy, late) or a fully adaptive strategy "
             "(generator backend only)",
    )
    subparser.add_argument(
        "--inner", type=str, default="sift-killer", metavar="STRATEGY",
        help="adaptive strategy wrapped by the noisy/late rungs "
             "(default: sift-killer)",
    )
    subparser.add_argument(
        "--delay", type=int, default=4, metavar="D",
        help="late adversary: decisions lag the run by D choices "
             "(default: 4)",
    )
    subparser.add_argument(
        "--noise", type=float, default=0.5, metavar="S",
        help="noisy adversary: probability each slot is a uniform random "
             "runnable process instead of the inner pick (default: 0.5)",
    )


def _parse_model_arguments(args: argparse.Namespace):
    """The (register_model, adversary) pair an argparse namespace pins."""
    from repro.memory.semantics import RegisterModel
    from repro.runtime.adaptive import ADAPTIVE_FAMILIES, AdaptiveSpec
    from repro.runtime.adversary import AdversarySpec

    model = None
    if args.register_model is not None and args.register_model != "atomic":
        model = RegisterModel(args.register_model, seed=args.seed)
    adversary = None
    if args.adversary is not None:
        if args.adversary in ADAPTIVE_FAMILIES:
            adversary = AdaptiveSpec(args.adversary, seed=args.seed)
        else:
            adversary = AdversarySpec(
                args.adversary, inner=args.inner, seed=args.seed,
                delay=args.delay, noise=args.noise,
            )
    return model, adversary


def _add_checkpoint_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the crash-safety knobs shared by long sweep subcommands."""
    subparser.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="journal completed trial chunks to PATH so a killed sweep "
             "can be resumed. Never changes results.",
    )
    subparser.add_argument(
        "--resume", action="store_true",
        help="replay an existing --checkpoint journal and run only the "
             "remaining trials; stats are bit-identical to an "
             "uninterrupted run.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Randomized consensus with an oblivious adversary "
                    "(Aspnes, PODC 2012) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    consensus = sub.add_parser("consensus", help="run one consensus execution")
    consensus.add_argument("--model", choices=["register", "snapshot", "linear"],
                           default="register")
    consensus.add_argument("--n", type=int, default=16)
    consensus.add_argument("--workload", choices=list(INPUT_WORKLOADS),
                           default="distinct")
    consensus.add_argument("--schedule", choices=list(ALL_SCHEDULE_FAMILIES),
                           default="random")
    consensus.add_argument("--seed", type=int, default=2012)

    conciliator = sub.add_parser(
        "conciliator", help="estimate agreement rate over repeated trials"
    )
    conciliator.add_argument("--algorithm", choices=catalog.names("exposed"),
                             default="sifting")
    conciliator.add_argument("--n", type=int, default=16)
    conciliator.add_argument("--trials", type=int, default=100)
    conciliator.add_argument("--schedule", choices=list(ALL_SCHEDULE_FAMILIES),
                             default="random")
    conciliator.add_argument("--seed", type=int, default=2012)
    conciliator.add_argument(
        "--backend", choices=list(BACKENDS), default="generator",
        help="execution engine: the event-level generator simulator "
             "(default), the NumPy mass-trial backend (vectorized; "
             "lockstep schedule families only), or the generator-stream "
             "replay used by the differential tests (vectorized-oracle)",
    )
    _add_model_arguments(
        conciliator,
        adversary_kinds=["noisy", "late"] + sorted(ADAPTIVE_FAMILIES),
    )
    _add_parallel_arguments(conciliator)
    _add_checkpoint_arguments(conciliator)

    decay = sub.add_parser("decay", help="survivor decay vs the paper bound")
    decay.add_argument("--algorithm", choices=catalog.names("decay_bound"),
                       default="sifting")
    decay.add_argument("--n", type=int, default=64)
    decay.add_argument("--trials", type=int, default=40)
    decay.add_argument("--schedule", choices=list(ALL_SCHEDULE_FAMILIES),
                       default="random")
    decay.add_argument("--seed", type=int, default=2012)
    decay.add_argument(
        "--backend", choices=list(BACKENDS), default="generator",
        help="execution engine (see `repro conciliator --help`); the "
             "vectorized backends require a lockstep --schedule such as "
             "permuted or interleaved",
    )
    decay.add_argument("--plot", action="store_true",
                       help="also render an ASCII chart of the curves")
    _add_parallel_arguments(decay)
    _add_checkpoint_arguments(decay)

    search = sub.add_parser(
        "search", help="search for the worst oblivious schedule"
    )
    search.add_argument("--algorithm", choices=catalog.names("decay_bound"),
                        default="sifting")
    search.add_argument("--n", type=int, default=8)
    search.add_argument("--generations", type=int, default=20)
    search.add_argument("--trials", type=int, default=8)
    search.add_argument("--seed", type=int, default=2012)
    search.add_argument(
        "--strategy", choices=list(SEARCH_STRATEGIES), default="hill-climb",
        help="candidate proposal strategy: mutation hill-climb (default) "
             "or a UCB1 bandit over the schedule families",
    )
    search.add_argument("--metrics", action="store_true",
                        help="print the search telemetry counters")

    tas = sub.add_parser("tas", help="test-and-set trials (E14 machinery)")
    tas.add_argument("--n", type=int, default=16)
    tas.add_argument("--trials", type=int, default=50)
    tas.add_argument("--seed", type=int, default=2012)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's experiment tables"
    )
    experiments.add_argument("--scale", type=float, default=0.25)
    experiments.add_argument("--only", type=str, default="",
                             help="comma-separated ids, e.g. E1,E5")
    experiments.add_argument("--seed", type=int, default=2012,
                             help="seed for any --register-model/--adversary "
                                  "override specs")
    _add_model_arguments(
        experiments,
        adversary_kinds=["noisy", "late"] + sorted(ADAPTIVE_FAMILIES),
    )
    _add_parallel_arguments(experiments)

    probe = sub.add_parser(
        "probe",
        help="tabulate agreement rate vs adversary-ladder rung "
             "(oblivious < noisy < late < adaptive) and register model "
             "(atomic/regular/safe) at fixed (n, trials)",
    )
    probe.add_argument("--n", type=int, default=8)
    probe.add_argument("--trials", type=int, default=400)
    probe.add_argument("--seed", type=int, default=2012)
    probe.add_argument(
        "--algorithms", type=str, default="sifting",
        help="comma-separated conciliators to sweep along the ladder "
             "(default: sifting; the register-model leg always runs both)",
    )
    probe.add_argument(
        "--inner", type=str, default="pending-reads", metavar="STRATEGY",
        help="adaptive strategy wrapped by the noisy/late rungs and used "
             "as the adaptive endpoint (default: pending-reads)",
    )
    probe.add_argument("--noise", type=float, default=0.8, metavar="S",
                       help="noisy rung strength (default: 0.8)")
    probe.add_argument("--delay", type=int, default=1, metavar="D",
                       help="late rung view delay (default: 1)")
    probe.add_argument("--json", action="store_true",
                       help="print the full report as JSON")
    probe.add_argument("--out", type=str, default=None, metavar="PATH",
                       help="also write the report JSON to PATH "
                            "(e.g. benchmarks/PROBE_ladder.json)")
    _add_parallel_arguments(probe)

    fuzz = sub.add_parser(
        "fuzz",
        help="chaos-fuzz random protocol/schedule/fault scenarios under "
             "the full oracle suite",
    )
    # Not required=True: --list-stacks works without a sizing mode; the
    # handler enforces exactly-one-of otherwise.
    sizing = fuzz.add_mutually_exclusive_group()
    sizing.add_argument(
        "--trials", type=int, default=None,
        help="run exactly this many scenarios (supports --checkpoint)",
    )
    sizing.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="keep launching scenario waves until this wall-clock budget "
             "expires",
    )
    fuzz.add_argument("--seed", type=int, default=2012,
                      help="master seed; the scenario sequence is a pure "
                           "function of (seed, config)")
    fuzz.add_argument(
        "--stacks", type=str, default="",
        help="comma-separated stack names to fuzz (default: every honest "
             "stack); see --list-stacks",
    )
    fuzz.add_argument("--list-stacks", action="store_true",
                      help="print the registered stack names and exit")
    fuzz.add_argument(
        "--corpus", type=str, default=None, metavar="DIR",
        help="write minimized reproducers for oracle violations into DIR "
             "(e.g. tests/corpus)",
    )
    shrink_group = fuzz.add_mutually_exclusive_group()
    shrink_group.add_argument(
        "--shrink", dest="shrink", action="store_true", default=True,
        help="delta-debug violations down to minimal reproducers (default)",
    )
    shrink_group.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="record violating scenarios verbatim, skipping minimization",
    )
    fuzz.add_argument(
        "--allow-out-of-model", action="store_true",
        help="also inject out-of-model register faults (lossy writes, "
             "stale reads); safety oracles other than validity/termination "
             "are demoted to degradations for those scenarios",
    )
    fuzz.add_argument("--min-n", type=int, default=2)
    fuzz.add_argument("--max-n", type=int, default=5)
    fuzz.add_argument(
        "--no-adaptive", dest="include_adaptive", action="store_false",
        default=True,
        help="draw only oblivious schedule families, no adaptive adversaries",
    )
    fuzz.add_argument(
        "--trial-wall-clock", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock safety valve (default: 30)",
    )
    _add_model_arguments(fuzz, adversary_kinds=["noisy", "late"])
    fuzz.add_argument("--json", action="store_true",
                      help="print the full campaign report as JSON")
    fuzz.add_argument(
        "--metrics", action="store_true",
        help="collect the metrics registry across all trials and include "
             "the aggregate snapshot in the campaign report",
    )
    fuzz.add_argument(
        "--explain", action="store_true",
        help="write a <case>.explain.json trace-analytics explanation "
             "next to every corpus case saved (requires --corpus)",
    )
    _add_parallel_arguments(fuzz)
    _add_checkpoint_arguments(fuzz)

    replay = sub.add_parser(
        "replay", help="re-run the regression corpus and check each case "
                       "still fires its recorded oracles",
    )
    replay.add_argument("--corpus", type=str, default="tests/corpus",
                        metavar="DIR", help="corpus directory to replay")
    replay.add_argument("--json", action="store_true",
                        help="print per-case verdicts as JSON")
    replay.add_argument(
        "--explain", action="store_true",
        help="also replay each case under a full trace and summarize its "
             "disagreement / attribution analysis",
    )
    replay.add_argument(
        "--explain-dir", type=str, default=None, metavar="DIR",
        help="with --explain: write <case>.explain.json and "
             "<case>.trace.jsonl artifacts into DIR",
    )

    explain = sub.add_parser(
        "explain",
        help="replay one corpus case under a full (unsampled) trace and "
             "print its persona-lineage, disagreement, and "
             "step-attribution analysis",
    )
    explain.add_argument("case", help="corpus case file (case-*.json)")
    explain.add_argument("--json", action="store_true",
                         help="print the full explanation as canonical JSON")
    explain.add_argument("--out", type=str, default=None, metavar="PATH",
                         help="also write the explanation JSON to PATH")
    explain.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="also write the replay's trace events as JSONL to PATH",
    )

    timeline = sub.add_parser(
        "timeline",
        help="render a deterministic per-process timeline of a corpus "
             "case (replayed under a full trace) or a saved trace JSONL",
    )
    timeline_source = timeline.add_mutually_exclusive_group(required=True)
    timeline_source.add_argument(
        "--case", type=str, default=None, metavar="FILE",
        help="corpus case file to replay and render",
    )
    timeline_source.add_argument(
        "--trace", type=str, default=None, metavar="FILE",
        help="trace JSONL file to render directly",
    )
    timeline.add_argument("--width", type=int, default=100,
                          help="maximum line width (default: 100)")
    timeline.add_argument(
        "--html", type=str, default=None, metavar="PATH",
        help="also write a static HTML rendering to PATH",
    )

    from repro.obs.bench import DEFAULT_THRESHOLD, SUITE_NAMES

    bench = sub.add_parser(
        "bench",
        help="run the curated perf suite and emit a machine-readable "
             "BENCH_<label>.json report",
    )
    bench.add_argument("--quick", action="store_true",
                       help="CI-sized suite (seconds instead of tens of "
                            "seconds); results are labeled as quick and "
                            "only comparable to other quick runs")
    bench.add_argument("--label", type=str, default="local",
                       help="report label; names the output file "
                            "BENCH_<label>.json (default: local)")
    bench.add_argument("--seed", type=int, default=2012)
    bench.add_argument("--suite", type=str, default="",
                       help="comma-separated case names to run "
                            f"(default: all of {', '.join(SUITE_NAMES)})")
    bench.add_argument("--out", type=str, default=None, metavar="PATH",
                       help="write the report to PATH (a directory gets "
                            "the canonical BENCH_<label>.json name)")
    bench.add_argument("--json", action="store_true",
                       help="print the full report as JSON on stdout")
    bench.add_argument(
        "--history", type=str, nargs="?", default=None,
        const="benchmarks/BENCH_history.jsonl", metavar="PATH",
        help="append this run's steps/sec (plus git SHA) to the bench "
             "trend ledger at PATH (default when the flag is given "
             "without a value: benchmarks/BENCH_history.jsonl)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command")
    bench_compare = bench_sub.add_parser(
        "compare",
        help="compare a new bench report against a baseline (per-case "
             "percent deltas; exit 0/1/2, see --help)",
        description="Compare a candidate bench report against a baseline, "
                    "printing per-case percent deltas.",
        epilog="Exit codes: 0 = every case within the threshold; "
               "1 = at least one case's steps/sec regressed past the "
               "threshold (or a baseline case is missing from the "
               "candidate); 2 = usage or configuration error (unreadable "
               "report, foreign schema version, bad threshold).",
    )
    bench_compare.add_argument("old", help="baseline BENCH_*.json")
    bench_compare.add_argument("new", help="candidate BENCH_*.json")
    bench_compare.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed fractional steps/sec drop per case before the gate "
             f"fails (default: {DEFAULT_THRESHOLD})",
    )
    bench_compare.add_argument("--json", action="store_true",
                               help="print the comparison as JSON")
    bench_trend = bench_sub.add_parser(
        "trend",
        help="summarize per-case steps/sec deltas across the append-only "
             "BENCH_history.jsonl ledger",
    )
    bench_trend.add_argument(
        "--history", type=str, default="benchmarks/BENCH_history.jsonl",
        metavar="PATH", help="ledger file to summarize "
                             "(default: benchmarks/BENCH_history.jsonl)",
    )
    bench_trend.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only summarize the newest N ledger entries",
    )
    bench_trend.add_argument("--json", action="store_true",
                             help="print the trend summary as JSON")

    from repro.analysis.growth import DEFAULT_MAX_N, QUICK_MAX_N

    growth = sub.add_parser(
        "growth",
        help="sweep n over decades to the million-process regime and emit "
             "the deterministic GROWTH_<label>.json separation curves",
        description="Run the asymptotic growth-curve experiment: ensemble "
                    "per-process work for the snapshot/sifting conciliators "
                    "and the DoublingCIL baseline on the vectorized backend, "
                    "the baseline's solo-run log-n ladder on the generator "
                    "backend, and a sparse/streaming shared-state probe at "
                    "the largest decade.  The report is a pure function of "
                    "(seed, epsilon, max-n) — no wall clock or git SHA — so "
                    "CI byte-compares it against a committed baseline.",
        epilog="Exit codes: 0 = curves computed and self-checks passed "
               "(and the baseline matched, when --baseline is given); "
               "1 = self-checks failed or the baseline diverged; "
               "2 = usage or configuration error.",
    )
    growth.add_argument("--quick", action="store_true",
                        help=f"stop the sweep at n={QUICK_MAX_N:,} (the CI "
                             "scale-smoke size) instead of "
                             f"n={DEFAULT_MAX_N:,}")
    growth.add_argument("--max-n", type=int, default=None, metavar="N",
                        help="override the largest decade explicitly "
                             "(wins over --quick)")
    growth.add_argument("--label", type=str, default="local",
                        help="report label; names the output file "
                             "GROWTH_<label>.json (default: local)")
    growth.add_argument("--seed", type=int, default=2012)
    growth.add_argument("--epsilon", type=float, default=0.5)
    growth.add_argument("--out", type=str, default=None, metavar="PATH",
                        help="write the report to PATH (a directory gets "
                             "the canonical GROWTH_<label>.json name)")
    growth.add_argument("--baseline", type=str, default=None, metavar="PATH",
                        help="byte-compare this run's deterministic view "
                             "against the committed report at PATH and fail "
                             "on any divergence (the scale-smoke gate)")
    growth.add_argument("--json", action="store_true",
                        help="print the full report as JSON on stdout")

    serve = sub.add_parser(
        "serve",
        help="serve consensus rounds as sessions over JSON-lines TCP",
        description="Bind the consensus service to a TCP endpoint: one "
                    "SessionRequest JSON object per line in, one "
                    "SessionResponse JSON line out.  Runs the same "
                    "service code as 'loadtest', on the real clock.",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8737,
                       help="TCP port (0 = pick a free one; default 8737)")
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--workers-per-shard", type=int, default=2)
    serve.add_argument("--queue-capacity", type=int, default=16,
                       help="max concurrent admitted sessions per shard; "
                            "the rest are rejected with queue-full")
    serve.add_argument("--seed", type=int, default=0,
                       help="service-side randomness seed (retry jitter)")
    serve.add_argument("--chaos", type=str, default=None, metavar="NAME",
                       help="inject a named service chaos stack "
                            f"({', '.join(service_chaos_names())})")
    serve.add_argument(
        "--stats-interval", type=float, default=None, metavar="SECONDS",
        help="periodically print the service's health summary (the same "
             "document the {\"cmd\": \"health\"} control verb returns) to "
             "stderr every SECONDS seconds",
    )
    serve.add_argument(
        "--span-capacity", type=int, default=1024, metavar="N",
        help="ring-buffer size for retained session span trees (the "
             "{\"cmd\": \"stats\"} verb reports retention); default 1024 "
             "— a long-lived server must bound this, unlike a loadtest",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="replay seeded open-loop traffic and emit an SLO report",
        description="Drive the consensus service with a deterministic "
                    "seeded arrival process on a virtual-time event loop. "
                    "Completes in wall-clock milliseconds regardless of "
                    "the traffic's virtual duration, and the SLO report "
                    "is byte-identical for a given seed (modulo the "
                    "wall_clock section).",
    )
    loadtest.add_argument(
        "--profile", choices=sorted(PROFILES), default="steady",
        help="arrival shape: steady Poisson, periodic bursts, "
             "slow-client stalls, or early client drops",
    )
    loadtest.add_argument("--sessions", type=int, default=1000,
                          help="total sessions to offer (default 1000)")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--algorithm", choices=catalog.names("exposed"),
                          default="sifting")
    loadtest.add_argument("-n", type=int, default=8,
                          help="processes per simulated round")
    loadtest.add_argument("--schedule", type=str, default="permuted",
                          metavar="FAMILY",
                          help="schedule family for the rounds "
                               "(default: permuted)")
    loadtest.add_argument("--deadline", type=float, default=5.0,
                          help="per-session budget in virtual seconds")
    loadtest.add_argument("--chaos", type=str, default=None, metavar="NAME",
                          help="inject a named service chaos stack "
                               f"({', '.join(service_chaos_names())})")
    loadtest.add_argument("--shards", type=int, default=2)
    loadtest.add_argument("--workers-per-shard", type=int, default=2)
    loadtest.add_argument("--queue-capacity", type=int, default=16)
    loadtest.add_argument("--slo-target", type=float, default=1.0,
                          metavar="SECONDS",
                          help="latency target defining SLO attainment")
    loadtest.add_argument("--label", type=str, default="local",
                          help="report label (default: local)")
    loadtest.add_argument("--out", type=str, default=None, metavar="PATH",
                          help="write the SLO report JSON to PATH")
    loadtest.add_argument("--json", action="store_true",
                          help="print the full report as JSON on stdout")
    loadtest.add_argument(
        "--history", type=str, nargs="?", default=None,
        const="benchmarks/SLO_history.jsonl", metavar="PATH",
        help="append this run's tail latency/shed rate/goodput (plus git "
             "SHA) to the SLO trend ledger at PATH (default when the "
             "flag is given without a value: benchmarks/SLO_history.jsonl)",
    )
    loadtest.add_argument(
        "--verify-determinism", action="store_true",
        help="run the loadtest twice and fail unless the deterministic "
             "views of both reports are byte-identical",
    )
    loadtest.add_argument(
        "--spans", type=str, default=None, metavar="DIR",
        help="persist every session's span tree to "
             "DIR/SPANS_<label>.jsonl (one canonical JSON line per "
             "session; `repro slo waterfall` reads this file)",
    )

    slo = sub.add_parser(
        "slo",
        help="inspect SLO artifacts: trend ledger, per-session waterfalls",
        description="Tools over the service layer's SLO artifacts: "
                    "'trend' summarizes the append-only SLO_history.jsonl "
                    "ledger (the loadtest --history output), 'waterfall' "
                    "renders one session's span tree from a loadtest "
                    "--spans file as an ASCII or HTML waterfall chart.",
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_trend = slo_sub.add_parser(
        "trend",
        help="summarize tail latency/shed rate/goodput/attainment deltas "
             "across the append-only SLO_history.jsonl ledger",
    )
    slo_trend.add_argument(
        "--history", type=str, default="benchmarks/SLO_history.jsonl",
        metavar="PATH", help="ledger file to summarize "
                             "(default: benchmarks/SLO_history.jsonl)",
    )
    slo_trend.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only summarize the newest N ledger entries",
    )
    slo_trend.add_argument("--json", action="store_true",
                           help="print the trend summary as JSON")
    slo_waterfall = slo_sub.add_parser(
        "waterfall",
        help="render one session's span tree as a waterfall chart",
    )
    slo_waterfall.add_argument(
        "spans", help="SPANS_*.jsonl file written by loadtest --spans",
    )
    slo_waterfall.add_argument(
        "--session", type=int, required=True, metavar="ID",
        help="session id to render (the SLO report's latency_attribution "
             "percentile rows name interesting ones)",
    )
    slo_waterfall.add_argument("--width", type=int, default=100,
                               help="chart width in columns (default 100)")
    slo_waterfall.add_argument(
        "--html", action="store_true",
        help="emit a self-contained static HTML page instead of ASCII",
    )
    slo_waterfall.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="write the rendering to PATH instead of stdout",
    )
    return parser


def _cmd_consensus(args: argparse.Namespace) -> int:
    inputs = make_input(args.workload, args.n, seed=args.seed)
    domain: List = []
    for value in inputs:
        if value not in domain:
            domain.append(value)
    if args.model == "snapshot":
        protocol = snapshot_consensus(args.n)
    elif args.model == "linear":
        protocol = register_consensus(args.n, value_domain=domain,
                                      linear_total_work=True)
    else:
        protocol = register_consensus(args.n, value_domain=domain)

    seeds = SeedTree(args.seed)
    schedule = make_schedule(args.schedule, args.n, seeds.child("schedule"))
    if args.schedule in PARTIAL_FAMILIES:
        programs = [protocol.program] * args.n
        result = run_programs(programs, schedule, seeds, inputs=list(inputs),
                              allow_partial=True)
    else:
        result = run_consensus(protocol, inputs, schedule, seeds)

    print(f"model={args.model} n={args.n} workload={args.workload} "
          f"adversary={args.schedule} seed={args.seed}")
    print(f"decided: {sorted(result.decided_values)!r}")
    print(f"agreement: {result.agreement}  "
          f"validity: {result.validity_holds(dict(enumerate(inputs)))}")
    print(f"total steps: {result.total_steps}  "
          f"max individual: {result.max_individual_steps}")
    if protocol.phases_used:
        print(f"phases used: {max(protocol.phases_used.values())}")
    return 0 if result.agreement else 1


def _cmd_conciliator(args: argparse.Namespace) -> int:
    factory = catalog.get(args.algorithm).factory
    register_model, adversary = _parse_model_arguments(args)
    stats = run_conciliator_trials(
        lambda: factory(args.n),
        list(range(args.n)),
        schedule_family=args.schedule,
        trials=args.trials,
        master_seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        backend=args.backend,
        register_model=register_model,
        adversary=adversary,
    )
    low, high = stats.agreement_interval
    adversary_label = args.adversary or args.schedule
    model_label = args.register_model or "atomic"
    print(f"algorithm={args.algorithm} n={args.n} "
          f"adversary={adversary_label} registers={model_label} "
          f"trials={args.trials} backend={args.backend}")
    print(f"agreement rate: {stats.agreement_rate:.3f} "
          f"(95% CI [{low:.3f}, {high:.3f}])")
    print(f"individual steps: {stats.individual_steps}")
    print(f"total steps: {stats.total_steps}")
    print(f"validity failures: {stats.validity_failures}")
    return 0 if stats.validity_failures == 0 else 1


def _cmd_decay(args: argparse.Namespace) -> int:
    record = catalog.get(args.algorithm)
    assert record.decay_bound is not None  # argparse choices
    series = decay_series(
        lambda: record.factory(args.n), list(range(args.n)),
        schedule_family=args.schedule, trials=args.trials,
        master_seed=args.seed, workers=args.workers,
        chunk_size=args.chunk_size, checkpoint_path=args.checkpoint,
        resume=args.resume, backend=args.backend,
    )
    bounds = record.decay_bound(args.n, len(series))
    rows = [
        [index + 1, round(survivors - 1, 3), round(bounds[index], 3)]
        for index, survivors in enumerate(series)
    ]
    print(render_table(
        ["round", "measured E[X_i]", "paper bound"],
        rows,
        title=f"{args.algorithm} decay, n={args.n}, {args.trials} trials",
    ))
    if args.plot:
        from repro.analysis.plots import series_plot

        measured = [survivors - 1 for survivors in series]
        print()
        print(series_plot(
            [("measured", measured), ("bound", bounds)],
            height=10,
            y_label="excess personae",
        ))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.search import search_worst_schedule

    factory = catalog.get(args.algorithm).factory
    registry = MetricsRegistry() if args.metrics else None
    result = search_worst_schedule(
        lambda: factory(args.n),
        list(range(args.n)),
        steps_per_process=factory(args.n).step_bound(),
        generations=args.generations,
        trials_per_eval=args.trials,
        master_seed=args.seed,
        strategy=args.strategy,
        metrics=registry,
    )
    print(f"algorithm={args.algorithm} n={args.n} "
          f"strategy={result.strategy} generations={args.generations}")
    print(f"schedules evaluated: {result.evaluations}")
    if result.family_pulls:
        pulls = " ".join(f"{arm}={count}"
                         for arm, count in result.family_pulls.items())
        print(f"proposal-arm pulls: {pulls}")
    if registry is not None:
        import json as _json

        print(_json.dumps(registry.to_json(), indent=2, sort_keys=True))
    print(f"starting (round-robin) agreement: {result.history[0]:.3f}")
    print(f"worst-found agreement (fresh seeds): {result.agreement_rate:.3f}")
    print("best-so-far per generation: "
          + " ".join(f"{rate:.2f}" for rate in result.history))
    print("the 1-eps floor holds for every oblivious schedule; the search")
    print("can approach it but not break it (see experiment E19).")
    return 0


def _cmd_tas(args: argparse.Namespace) -> int:
    from repro.tas.sifting_tas import SiftingTestAndSet

    unique_winner_failures = 0
    winner_steps = []
    loser_steps = []
    for trial in range(args.trials):
        seeds = SeedTree(args.seed * 10_000 + trial)
        tas = SiftingTestAndSet(args.n)
        schedule = make_schedule("random", args.n, seeds.child("schedule"))
        programs = [tas.program] * args.n
        result = run_programs(programs, schedule, seeds)
        winners = [pid for pid, out in result.outputs.items() if out == 0]
        if len(winners) != 1:
            unique_winner_failures += 1
            continue
        winner_steps.append(result.steps_by_pid[winners[0]])
        loser_steps.extend(
            result.steps_by_pid[pid] for pid in result.outputs
            if pid != winners[0]
        )
    print(f"n={args.n} trials={args.trials}")
    print(f"unique-winner violations: {unique_winner_failures}")
    if winner_steps:
        print(f"winner steps: mean {sum(winner_steps)/len(winner_steps):.1f}")
    if loser_steps:
        print(f"loser steps:  mean {sum(loser_steps)/len(loser_steps):.1f} "
              f"max {max(loser_steps)}")
    return 0 if unique_winner_failures == 0 else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import model_overrides
    from repro.analysis.paper import select_experiments
    from repro.errors import ConfigurationError

    if not (math.isfinite(args.scale) and args.scale > 0):
        raise ConfigurationError(
            f"--scale must be finite and > 0, got {args.scale}"
        )
    builders = select_experiments(args.only)
    register_model, adversary = _parse_model_arguments(args)
    all_ok = True
    # The experiment builders call the trial runners with default sharding
    # and default model axes, so the session-level overrides parallelize
    # (and re-model) every table at once.
    with parallelism(workers=args.workers, chunk_size=args.chunk_size), \
            model_overrides(register_model=register_model,
                            adversary=adversary):
        for experiment in builders:
            table = experiment(scale=args.scale)
            print(table.render())
            print()
            all_ok = all_ok and table.shape_holds
    return 0 if all_ok else 1


def _cmd_probe(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.probe import run_probe

    algorithms = tuple(
        token.strip() for token in args.algorithms.split(",") if token.strip()
    )
    report = run_probe(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        algorithms=algorithms or ("sifting",),
        inner=args.inner,
        noise=args.noise,
        delay=args.delay,
        workers=args.workers,
        chunk_size=args.chunk_size,
        log=lambda message: print(message, file=sys.stderr),
    )
    if args.out is not None:
        path = report.write(args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
        monotone = all(report.monotone.values())
        print()
        print(f"ladder monotone: {monotone}  "
              f"hard oracles hold: {report.hard_oracles_hold}")
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import FuzzConfig, run_fuzz_campaign, stack_names

    if args.list_stacks:
        for name in stack_names(include_planted=True):
            print(name)
        return 0
    stacks = tuple(
        token.strip() for token in args.stacks.split(",") if token.strip()
    )
    register_model, adversary = _parse_model_arguments(args)
    config = FuzzConfig(
        stacks=stacks,
        min_n=args.min_n,
        max_n=args.max_n,
        include_adaptive=args.include_adaptive,
        allow_out_of_model=args.allow_out_of_model,
        register_model=register_model,
        adversary=adversary,
    )
    trial_wall_clock = args.trial_wall_clock
    corpus_dir = Path(args.corpus) if args.corpus else None
    if args.explain and corpus_dir is None:
        print("error: --explain requires --corpus (explanations are "
              "written next to the saved cases)", file=sys.stderr)
        return 2
    report = run_fuzz_campaign(
        args.seed,
        config,
        trials=args.trials,
        time_budget=args.time_budget,
        corpus_dir=corpus_dir,
        shrink=args.shrink,
        **({} if trial_wall_clock is None
           else {"trial_wall_clock": trial_wall_clock}),
        workers=args.workers,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        collect_metrics=args.metrics,
        explain_dir=corpus_dir if args.explain else None,
        log=lambda message: print(message, file=sys.stderr),
    )
    if args.json:
        import json as _json

        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        statuses = " ".join(
            f"{name}={count}"
            for name, count in sorted(report.statuses.items())
        )
        print(f"seed={report.master_seed} trials={report.trials} "
              f"stopped-by={report.stopped_by} "
              f"elapsed={report.elapsed_seconds:.1f}s")
        print(f"statuses: {statuses or '(none)'}")
        for finding in report.findings:
            oracles = ", ".join(finding.oracles)
            where = finding.corpus_file or "(not saved)"
            print(f"  trial {finding.trial}: {finding.status} [{oracles}] "
                  f"stack={finding.scenario.stack} "
                  f"shrunk-to n={finding.shrunk.n} -> {where}")
        if report.corpus_files:
            print(f"corpus: {len(report.corpus_files)} file(s) written")
        print("ok" if report.ok else "VIOLATIONS FOUND")
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import load_corpus, replay_case

    explain_requested = getattr(args, "explain", False)
    explain_dir = getattr(args, "explain_dir", None)
    if explain_dir is not None and not explain_requested:
        print("error: --explain-dir requires --explain", file=sys.stderr)
        return 2

    cases = load_corpus(Path(args.corpus))
    if not cases:
        print(f"no corpus cases under {args.corpus}")
        return 0
    reports = []
    explanations = {}
    failures = 0
    for path, case in cases:
        verdict = replay_case(case, wall_clock_seconds=60.0)
        reports.append((path, verdict))
        if not verdict.reproduced:
            failures += 1
        if explain_requested:
            from repro.fuzz.explain import explain_case
            from repro.obs.events import write_trace_jsonl

            explanation = explain_case(case, wall_clock_seconds=60.0)
            explanations[path.name] = explanation
            if explain_dir is not None:
                stem = path.name.rsplit(".", 1)[0]
                out_dir = Path(explain_dir)
                explanation.write(out_dir / f"{stem}.explain.json")
                out_dir.mkdir(parents=True, exist_ok=True)
                write_trace_jsonl(
                    explanation.events, out_dir / f"{stem}.trace.jsonl"
                )
    if args.json:
        import json as _json

        print(_json.dumps([
            {
                "file": path.name,
                "reproduced": verdict.reproduced,
                "matched": list(verdict.matched),
                "missing": list(verdict.missing),
                "status": verdict.outcome.status,
                **(
                    {"explanation": explanations[path.name].to_json()}
                    if path.name in explanations else {}
                ),
            }
            for path, verdict in reports
        ], indent=2, sort_keys=True))
    else:
        for path, verdict in reports:
            mark = "ok " if verdict.reproduced else "FAIL"
            print(f"{mark} {path.name}: matched={list(verdict.matched)} "
                  f"missing={list(verdict.missing)}")
            explanation = explanations.get(path.name)
            if explanation is not None:
                disagreement = explanation.disagreement
                if disagreement is not None and disagreement.diverged:
                    values = ", ".join(
                        repr(value) for value in disagreement.final_values
                    )
                    print(f"     disagreement: diverged at round "
                          f"{disagreement.divergence_round}; "
                          f"surviving values: {values}")
                attribution = explanation.attribution
                if attribution is not None:
                    verdict_text = ("within tolerance"
                                    if attribution.within_tolerance
                                    else "OUT OF TOLERANCE")
                    print(f"     attribution: {attribution.observed_rounds} "
                          f"round(s) observed vs "
                          f"{attribution.predicted['rounds']} predicted "
                          f"({verdict_text})")
        if explain_dir is not None:
            print(f"explanations written under {explain_dir}")
        print(f"{len(reports)} case(s), {failures} failed to reproduce")
    return 0 if failures == 0 else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.fuzz.corpus import load_case
    from repro.fuzz.explain import explain_case
    from repro.obs.events import write_trace_jsonl

    case_path = Path(args.case)
    if not case_path.is_file():
        print(f"error: corpus case {case_path} cannot be read",
              file=sys.stderr)
        return 2
    case = load_case(case_path)
    explanation = explain_case(case, wall_clock_seconds=60.0)
    if args.out is not None:
        path = explanation.write(args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.trace is not None:
        count = write_trace_jsonl(explanation.events, args.trace)
        print(f"wrote {count} trace event(s) to {args.trace}",
              file=sys.stderr)
    if args.json:
        print(_json.dumps(explanation.to_json(), indent=2, sort_keys=True))
    else:
        print(explanation.render())
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.timeline import render_timeline, render_timeline_html

    if args.case is not None:
        from repro.fuzz.corpus import load_case
        from repro.fuzz.explain import explain_case

        case_path = Path(args.case)
        if not case_path.is_file():
            print(f"error: corpus case {case_path} cannot be read",
                  file=sys.stderr)
            return 2
        explanation = explain_case(
            load_case(case_path), wall_clock_seconds=60.0
        )
        events = list(explanation.events)
        title = f"repro timeline: {case_path.name}"
    else:
        trace_path = Path(args.trace)
        if not trace_path.is_file():
            print(f"error: trace file {trace_path} cannot be read",
                  file=sys.stderr)
            return 2
        from repro.obs.events import read_trace_jsonl

        events = read_trace_jsonl(trace_path)
        title = f"repro timeline: {trace_path.name}"
    if args.html is not None:
        html_path = Path(args.html)
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(
            render_timeline_html(events, title=title), encoding="utf-8"
        )
        print(f"wrote {html_path}", file=sys.stderr)
    print(render_timeline(events, width=args.width), end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.bench import (
        compare_bench,
        load_bench_json,
        run_bench_suite,
        write_bench_json,
    )

    if getattr(args, "bench_command", None) == "compare":
        comparison = compare_bench(
            load_bench_json(args.old),
            load_bench_json(args.new),
            threshold=args.threshold,
        )
        if args.json:
            print(_json.dumps(comparison.to_json(), indent=2, sort_keys=True))
        else:
            print(comparison.render())
        return 0 if comparison.ok else 1

    if getattr(args, "bench_command", None) == "trend":
        from repro.obs.trend import load_history, render_trend, summarize_trend

        entries = load_history(args.history)
        if args.json:
            trends = summarize_trend(entries, last=args.last)
            print(_json.dumps({
                "history": args.history,
                "entries": len(entries),
                "cases": [
                    {
                        "name": trend.name,
                        "points": trend.points,
                        "first_steps_per_sec": trend.first,
                        "last_steps_per_sec": trend.last,
                        "latest_change": trend.latest_change,
                        "overall_change": trend.overall_change,
                    }
                    for trend in trends
                ],
            }, indent=2, sort_keys=True))
        else:
            print(render_trend(entries, last=args.last))
        return 0

    suites = tuple(
        token.strip() for token in args.suite.split(",") if token.strip()
    )
    report = run_bench_suite(
        label=args.label,
        quick=args.quick,
        seed=args.seed,
        suites=suites or None,
        log=lambda message: print(message, file=sys.stderr),
    )
    if args.out is not None:
        path = write_bench_json(report, args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.history is not None:
        from repro.obs.trend import append_history

        append_history(report, args.history)
        print(f"appended history entry to {args.history}", file=sys.stderr)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        mode = "quick" if report["quick"] else "full"
        print(f"label={report['label']} mode={mode} seed={report['seed']} "
              f"git={report['git_sha'][:12]} "
              f"elapsed={report['elapsed_seconds']:.1f}s")
        for name in sorted(report["cases"]):
            case = report["cases"][name]
            print(f"  {name:22s} n={case['n']:3d} trials={case['trials']:4d} "
                  f"{case['steps_per_sec']:12.0f} steps/s "
                  f"p50={case['latency_p50_s'] * 1e3:.2f}ms "
                  f"p95={case['latency_p95_s'] * 1e3:.2f}ms")
    return 0


def _service_config(args: argparse.Namespace) -> "ServiceConfig":
    from repro.service import ServiceConfig

    return ServiceConfig(
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        queue_capacity=args.queue_capacity,
        seed=args.seed,
        span_capacity=getattr(args, "span_capacity", None),
    )


def _resolve_chaos(name: Optional[str]):
    from repro.fuzz.stacks import get_service_chaos

    return None if name is None else get_service_chaos(name)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from repro.errors import ConfigurationError
    from repro.service import ServiceServer
    from repro.service.server import health_summary

    if args.stats_interval is not None and args.stats_interval <= 0:
        raise ConfigurationError(
            f"--stats-interval must be > 0, got {args.stats_interval}"
        )
    server = ServiceServer(
        _service_config(args), chaos=_resolve_chaos(args.chaos)
    )

    async def self_report(interval: float) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            print(
                json_module.dumps(
                    health_summary(server.service.snapshot(loop.time())),
                    sort_keys=True,
                ),
                file=sys.stderr,
            )

    async def run() -> None:
        await server.start(args.host, args.port)
        print(f"serving consensus sessions on {args.host}:{server.port} "
              f"(shards={args.shards}, "
              f"queue={args.queue_capacity}/shard"
              + (f", chaos={args.chaos}" if args.chaos else "") + ")")
        print("protocol: one SessionRequest JSON object per line "
              "({\"cmd\": \"stats\"} / {\"cmd\": \"health\"} for live "
              "introspection); Ctrl-C to stop")
        reporter = (
            asyncio.ensure_future(self_report(args.stats_interval))
            if args.stats_interval is not None else None
        )
        try:
            await server.serve_forever()
        finally:
            if reporter is not None:
                reporter.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service import build_report, render_report, run_loadtest
    from repro.service.loadgen import PROFILES as _profiles  # noqa: F401
    from repro.service.slo import (
        append_slo_history,
        deterministic_view,
        write_report,
    )

    def one_run():
        result = run_loadtest(
            profile=args.profile,
            sessions=args.sessions,
            seed=args.seed,
            config=_service_config(args),
            chaos=_resolve_chaos(args.chaos),
            algorithm=args.algorithm,
            n=args.n,
            schedule_family=args.schedule,
            deadline=args.deadline,
        )
        report = build_report(
            result,
            label=args.label,
            slo_target_latency=args.slo_target,
            chaos_stack=args.chaos,
        )
        return report, result

    report, result = one_run()
    if args.verify_determinism:
        second, _ = one_run()
        first_view = json_module.dumps(
            deterministic_view(report), sort_keys=True
        )
        second_view = json_module.dumps(
            deterministic_view(second), sort_keys=True
        )
        if first_view != second_view:
            print("error: loadtest is not deterministic — two runs with "
                  "the same seed produced different reports",
                  file=sys.stderr)
            return 1
        print("determinism verified: two runs, identical reports")
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if args.spans:
        import os

        from repro.service.spans import write_spans_jsonl

        os.makedirs(args.spans, exist_ok=True)
        spans_path = os.path.join(args.spans, f"SPANS_{args.label}.jsonl")
        write_spans_jsonl(result.spans, spans_path)
        print(f"wrote {len(result.spans)} span tree(s) to {spans_path}")
    if args.history:
        entry = append_slo_history(report, args.history)
        print(f"appended p99={entry['p99']:.4f}s "
              f"shed={entry['shed_rate']:.3f} to {args.history}")
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0 if report["sessions"]["unexpected_errors"] == 0 else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    import json as json_module

    if args.slo_command == "trend":
        from repro.service.slo import (
            load_slo_history,
            render_slo_trend,
            summarize_slo_trend,
        )

        entries = load_slo_history(args.history)
        if args.json:
            print(json_module.dumps(
                [
                    {
                        "metric": trend.name,
                        "points": trend.points,
                        "first": trend.first,
                        "last": trend.last,
                        "latest_change": trend.latest_change,
                        "overall_change": trend.overall_change,
                    }
                    for trend in summarize_slo_trend(entries, last=args.last)
                ],
                indent=2, sort_keys=True,
            ))
        else:
            print(render_slo_trend(entries, last=args.last))
        return 0

    # waterfall
    from repro.obs.timeline import render_waterfall, render_waterfall_html
    from repro.service.spans import read_spans_jsonl, tree_to_json

    roots = read_spans_jsonl(args.spans)
    match = next(
        (root for root in roots
         if root.attrs.get("session_id") == args.session),
        None,
    )
    if match is None:
        print(f"error: no session {args.session} in {args.spans} "
              f"({len(roots)} tree(s) read)", file=sys.stderr)
        return 1
    tree = tree_to_json(match)
    if args.html:
        rendering = render_waterfall_html(
            tree, title=f"session {args.session} waterfall",
        )
    else:
        rendering = render_waterfall(tree, width=args.width)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendering)
        print(f"wrote {args.out}")
    else:
        print(rendering, end="")
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.growth import (
        DEFAULT_MAX_N,
        QUICK_MAX_N,
        compare_growth,
        load_growth_json,
        run_growth_experiment,
        write_growth_json,
    )

    if args.max_n is not None:
        max_n = args.max_n
    elif args.quick:
        max_n = QUICK_MAX_N
    else:
        max_n = DEFAULT_MAX_N
    report = run_growth_experiment(
        label=args.label,
        seed=args.seed,
        epsilon=args.epsilon,
        max_n=max_n,
        log=lambda message: print(message, file=sys.stderr),
    )
    if args.out is not None:
        path = write_growth_json(report, args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        checks = report["checks"]
        print(f"label={report['label']} seed={report['seed']} "
              f"max_n={report['max_n']} "
              f"ordering={' <= '.join(checks['observed_ordering'])} "
              f"growth_ratio={checks['growth_ratio']}x "
              f"checks={'ok' if checks['ok'] else 'FAILED'}")
    ok = bool(report["checks"]["ok"])
    if args.baseline is not None:
        matches, message = compare_growth(
            load_growth_json(args.baseline), report
        )
        print(message, file=sys.stderr)
        ok = ok and matches
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "consensus": _cmd_consensus,
        "conciliator": _cmd_conciliator,
        "decay": _cmd_decay,
        "search": _cmd_search,
        "tas": _cmd_tas,
        "experiments": _cmd_experiments,
        "probe": _cmd_probe,
        "fuzz": _cmd_fuzz,
        "replay": _cmd_replay,
        "explain": _cmd_explain,
        "timeline": _cmd_timeline,
        "bench": _cmd_bench,
        "growth": _cmd_growth,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "slo": _cmd_slo,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left (``repro ... | head``): as the Python docs advise,
        # point stdout at devnull so the final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
