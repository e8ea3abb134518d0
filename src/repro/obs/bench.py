"""The ``repro bench`` harness: curated suite, canonical JSON, compare gate.

The suite has one case per algorithm family plus a raw simulator-step
microbench, so a perf regression anywhere in the hot path — the step loop,
snapshot scans, sifting rounds, consensus composition — moves at least one
number here:

- ``simulator-step``     raw step-loop throughput, no hooks attached
- ``snapshot-conciliator``  Algorithm 1 end to end
- ``sifting-conciliator``   Algorithm 2 end to end
- ``cil-embedded``          Algorithm 3 (CIL with embedded conciliator)
- ``consensus``             the conciliator + adopt-commit composition
- ``vectorized-sifting``    Algorithm 2 on the NumPy mass-trial backend
- ``vectorized-snapshot``   Algorithm 1 on the NumPy mass-trial backend
- ``late-adversary-sifting``  Algorithm 2 under the late-δ choosing
  adversary (the weakened-model hot path: adversary wrapper + clamping)
- ``sparse-sifting-large``  Algorithm 2 at thousands of processes under an
  O(1)-memory streaming schedule (the large-n generator path: lazy
  register allocation + pure-function sampling)
- ``streaming-schedule``    raw ``pid_at`` sampler throughput at
  n = 10^6 (the million-process regime's schedule hot loop)

The two ``vectorized-*`` cases exist to pin the mass-trial backend's
headline claim — orders of magnitude more steps/sec than the generator's
``simulator-step`` floor — as a number the perf gate can watch.  When NumPy
is not installed they are skipped from the default selection (logged, not
silent); naming one explicitly without NumPy raises
:class:`ConfigurationError`.

Each case runs a fixed, seeded workload for a fixed trial count (smaller
under ``--quick``), measures per-trial wall latency, counts charged steps,
and collects a deterministic metrics snapshot via
:class:`~repro.obs.metrics.MetricsHook`.  The headline figure is
**steps/sec** — work over time — because it is comparable across hosts of
similar class and robust to trial-count changes.

Reports are versioned JSON (``BENCH_<label>.json``) carrying machine
totals, p50/p95 latencies, steps/sec, the metrics snapshot, the git SHA,
and an environment fingerprint.  :func:`compare_bench` diffs two reports
and flags any case whose steps/sec regressed past a threshold — the CI
perf gate.  Timing numbers are host-dependent by nature; the committed
baseline plus a generous threshold (40% in CI) absorbs runner noise while
still catching step-loop pessimizations, which tend to be multiplicative.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned, git_sha, load_json_file, write_json
from repro.obs.metrics import MetricsHook, MetricsRegistry, merge_snapshots
from repro.runtime.adaptive import AdaptiveAdversary, run_adaptive_programs
from repro.runtime.operations import Read, Write
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.workloads.schedules import make_schedule

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchComparison",
    "CaseComparison",
    "SUITE_NAMES",
    "compare_bench",
    "load_bench_json",
    "run_bench_suite",
    "write_bench_json",
]

#: Version stamped on every bench report; bump on incompatible change.
BENCH_SCHEMA_VERSION = 1

#: Default steps/sec regression fraction past which compare fails.
DEFAULT_THRESHOLD = 0.4


# ----- case implementations --------------------------------------------------


@dataclass(frozen=True)
class _Sizing:
    """Per-case workload size; quick mode trades coverage for CI latency."""

    n: int
    trials: int


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sequence."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[rank]


def _spin_program(ops: int):
    """A program executing ``ops`` register steps: the step-loop microbench.

    Alternates writes and reads on the process's own register so the
    measured cost is the simulator loop itself, not object contention.
    """

    def program(ctx):
        from repro.memory.register import AtomicRegister

        register = AtomicRegister(name=f"spin-{ctx.pid}")
        for index in range(ops // 2):
            yield Write(register, index)
            yield Read(register)
        return ctx.pid

    return program


def _case_result(
    *,
    trials: int,
    n: int,
    total_steps: int,
    latencies: Sequence[float],
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One case's report entry; a single timed call is one latency."""
    elapsed = sum(latencies)
    return {
        "trials": trials,
        "n": n,
        "total_steps": total_steps,
        "elapsed_seconds": elapsed,
        "steps_per_sec": total_steps / elapsed if elapsed > 0 else 0.0,
        "latency_p50_s": _percentile(latencies, 0.50),
        "latency_p95_s": _percentile(latencies, 0.95),
        "metrics": metrics,
    }


def _run_trials(
    build: Callable[[SeedTree], Tuple[List[Any], List[Any]]],
    *,
    n: int,
    trials: int,
    seed: int,
    hooks_factory: Optional[Callable[[], Tuple[List[Any], MetricsRegistry]]],
    family: str = "random",
    adversary: Optional[Callable[[SeedTree], AdaptiveAdversary]] = None,
) -> Dict[str, Any]:
    """Shared measurement loop: per-trial latency, steps, metric snapshots.

    ``build(seeds)`` returns ``(programs, inputs)`` for one trial.  The
    trial runs under ``adversary(seeds)``, an adaptive adversary, when one
    is given; otherwise under the ``family`` schedule built from the
    trial's ``"schedule"`` seed branch as usual.
    """
    latencies: List[float] = []
    total_steps = 0
    snapshots: List[Dict[str, Any]] = []
    for trial in range(trials):
        seeds = SeedTree(seed).child(f"bench-{trial}")
        programs, inputs = build(seeds)
        if adversary is None:
            schedule = make_schedule(family, n, seeds.child("schedule"))
            run = partial(run_programs, programs, schedule)
        else:
            run = partial(run_adaptive_programs, programs, adversary(seeds))
        hooks: List[Any] = []
        registry: Optional[MetricsRegistry] = None
        if hooks_factory is not None:
            hooks, registry = hooks_factory()
        started = time.perf_counter()
        result = run(seeds, inputs=inputs, hooks=hooks)
        latencies.append(time.perf_counter() - started)
        total_steps += result.total_steps
        if registry is not None:
            snapshots.append(registry.to_json())
    merged = merge_snapshots(snapshots) if snapshots else None
    metrics = merged.to_json() if merged is not None else None
    if metrics is not None:
        # The report's metrics blob is for reading, not re-aggregation:
        # keep the exact moments, drop the decimated sample arrays so a
        # committed baseline stays a small, reviewable diff.
        for hist in metrics.get("histograms", {}).values():
            hist.pop("samples", None)
            hist.pop("stride", None)
    return _case_result(trials=trials, n=n, total_steps=total_steps,
                        latencies=latencies, metrics=metrics)


def _metrics_hooks() -> Tuple[List[Any], MetricsRegistry]:
    registry = MetricsRegistry()
    return [MetricsHook(registry)], registry


def _case_simulator_step(sizing: _Sizing, seed: int) -> Dict[str, Any]:
    """Raw step-loop throughput with no hooks: the zero-overhead floor."""
    ops = 2_000

    def build(seeds: SeedTree):
        return [_spin_program(ops)] * sizing.n, list(range(sizing.n))

    return _run_trials(
        build, n=sizing.n, trials=sizing.trials, seed=seed,
        hooks_factory=None,
    )


def _conciliator_case(algorithm: str):
    def case(sizing: _Sizing, seed: int) -> Dict[str, Any]:
        from repro import catalog

        factory = catalog.get(algorithm).factory

        def build(seeds: SeedTree):
            conciliator = factory(sizing.n)
            return ([conciliator.program] * sizing.n,
                    list(range(sizing.n)))

        return _run_trials(
            build, n=sizing.n, trials=sizing.trials, seed=seed,
            hooks_factory=_metrics_hooks,
        )

    return case


def _case_consensus(sizing: _Sizing, seed: int) -> Dict[str, Any]:
    from repro.core.consensus import register_consensus

    def build(seeds: SeedTree):
        protocol = register_consensus(
            sizing.n, value_domain=list(range(sizing.n))
        )
        return [protocol.program] * sizing.n, list(range(sizing.n))

    return _run_trials(
        build, n=sizing.n, trials=sizing.trials, seed=seed,
        hooks_factory=_metrics_hooks,
    )


def _case_late_adversary_sifting(sizing: _Sizing, seed: int) -> Dict[str, Any]:
    """Algorithm 2 under the late-δ choosing adversary.

    Exercises the weakened-model hot path — the adversary wrapper's
    snapshot ring buffer, stale-view projection, and unrunnable-pick
    clamping — so a pessimization in the ladder machinery moves this
    number without disturbing the atomic-register cases.
    """
    from dataclasses import replace

    from repro.core.sifting_conciliator import SiftingConciliator
    from repro.runtime.adversary import AdversarySpec

    spec = AdversarySpec("late", inner="pending-reads", delay=1)

    def build(seeds: SeedTree):
        conciliator = SiftingConciliator(sizing.n)
        return [conciliator.program] * sizing.n, list(range(sizing.n))

    def adversary(seeds: SeedTree):
        return replace(
            spec, seed=seeds.child("adversary").rng().randrange(2**32)
        ).build()

    return _run_trials(
        build, n=sizing.n, trials=sizing.trials, seed=seed,
        hooks_factory=_metrics_hooks, adversary=adversary,
    )


def _case_sparse_sifting_large(sizing: _Sizing, seed: int) -> Dict[str, Any]:
    """Algorithm 2 at thousands of processes on the generator backend.

    Exercises the large-n path the small cases never touch: lazily
    allocated register files (only the handful of round registers
    materialize) driven by an O(1)-memory streaming schedule instead of a
    materialized pid list.  Metrics hooks are left off — at this size the
    hook dispatch would dominate and hide a regression in the state layer
    itself.
    """
    from repro.core.sifting_conciliator import SiftingConciliator

    def build(seeds: SeedTree):
        conciliator = SiftingConciliator(sizing.n)
        return ([conciliator.program] * sizing.n,
                [pid % 2 for pid in range(sizing.n)])

    return _run_trials(
        build, n=sizing.n, trials=sizing.trials, seed=seed,
        hooks_factory=None, family="streaming-permuted",
    )


def _case_streaming_schedule(sizing: _Sizing, seed: int) -> Dict[str, Any]:
    """Raw streaming-sampler throughput at the million-process regime.

    One timed scan of ``trials`` slots through a
    :class:`~repro.runtime.streaming.StreamingPermutedSchedule` at
    ``n = 10^6`` — the schedule hot loop of every large-n experiment, with
    no simulator around it.  ``total_steps`` counts sampled slots, so the
    headline stays steps/sec; the pid checksum keeps the loop honest.
    """
    from repro.runtime.streaming import StreamingPermutedSchedule

    schedule = StreamingPermutedSchedule(sizing.n, seed)
    slots = sizing.trials
    checksum = 0
    started = time.perf_counter()
    for step in range(slots):
        checksum += schedule.pid_at(step)
    elapsed = time.perf_counter() - started
    assert 0 <= checksum < slots * sizing.n
    return _case_result(trials=1, n=sizing.n, total_steps=slots,
                        latencies=[elapsed])


def _numpy_available() -> bool:
    """Indirection over the backend's probe (monkeypatchable in tests)."""
    from repro.runtime.vectorized import numpy_available

    return numpy_available()


def _vectorized_case(algorithm: str, family: str):
    """A mass-trial case: one batched sweep, measured as a single call.

    The whole sweep is one kernel invocation, so there is no per-trial
    latency distribution — p50/p95 both report the sweep's wall time and
    the headline stays steps/sec, comparable with the generator cases.
    """

    def case(sizing: _Sizing, seed: int) -> Dict[str, Any]:
        from repro import catalog
        from repro.runtime.vectorized import run_vectorized_sweep

        factory = catalog.get(algorithm).factory

        # Untimed warm-up: the generator cases amortize import/allocator
        # warm-up across hundreds of timed trials; this case is a single
        # batched call, so pay that cost before the clock starts.
        run_vectorized_sweep(
            lambda: factory(sizing.n),
            list(range(sizing.n)),
            schedule_family=family,
            trials=max(1, sizing.trials // 8),
            master_seed=seed + 1,
            workers=1,
        )
        started = time.perf_counter()
        sweep = run_vectorized_sweep(
            lambda: factory(sizing.n),
            list(range(sizing.n)),
            schedule_family=family,
            trials=sizing.trials,
            master_seed=seed,
            workers=1,
        )
        elapsed = time.perf_counter() - started
        return _case_result(trials=sizing.trials, n=sizing.n,
                            total_steps=int(sum(sweep.total_steps)),
                            latencies=[elapsed])

    return case


#: name -> (case function, quick sizing, full sizing)
_SUITE: Dict[str, Tuple[Callable[[_Sizing, int], Dict[str, Any]],
                        _Sizing, _Sizing]] = {
    # Sizings target roughly a second per case in quick mode and several
    # seconds in full mode: long enough that steps/sec is a stable signal
    # on a shared CI runner, short enough to gate every PR.
    "simulator-step": (
        _case_simulator_step, _Sizing(n=8, trials=30), _Sizing(n=8, trials=100),
    ),
    "snapshot-conciliator": (
        _conciliator_case("snapshot"),
        _Sizing(n=16, trials=300), _Sizing(n=32, trials=500),
    ),
    "sifting-conciliator": (
        _conciliator_case("sifting"),
        _Sizing(n=16, trials=300), _Sizing(n=32, trials=500),
    ),
    "cil-embedded": (
        _conciliator_case("cil-embedded"),
        _Sizing(n=16, trials=200), _Sizing(n=32, trials=300),
    ),
    "consensus": (
        _case_consensus, _Sizing(n=12, trials=200), _Sizing(n=16, trials=400),
    ),
    # Mass-trial cases: `trials` here is the batched sweep size, so quick
    # mode still pushes tens of millions of charged steps through the
    # kernels — enough that steps/sec is stable, still well under a second.
    "vectorized-sifting": (
        _vectorized_case("sifting", "permuted"),
        _Sizing(n=64, trials=16384), _Sizing(n=64, trials=65536),
    ),
    "vectorized-snapshot": (
        _vectorized_case("snapshot", "interleaved"),
        _Sizing(n=64, trials=16384), _Sizing(n=64, trials=65536),
    ),
    # The choosing-adversary path runs the adaptive step loop, where every
    # slot is an adversary pick through the wrapper layer (ring buffer,
    # stale view, clamping), and a pick's cost grows with n.  Measured on a
    # 2-vCPU Xeon VM it runs 2.4-3.2x (median 2.7x) slower than
    # sifting-conciliator at the quick size (n=16) and 3.9-4.1x slower at
    # the full size (n=32).
    "late-adversary-sifting": (
        _case_late_adversary_sifting,
        _Sizing(n=16, trials=200), _Sizing(n=32, trials=300),
    ),
    # Large-n cases for the million-process machinery: the generator loop
    # over lazy registers + streaming schedule, and the bare sampler.  For
    # `streaming-schedule`, `trials` is the slot count of one timed scan.
    "sparse-sifting-large": (
        _case_sparse_sifting_large,
        _Sizing(n=2048, trials=3), _Sizing(n=4096, trials=6),
    ),
    "streaming-schedule": (
        _case_streaming_schedule,
        _Sizing(n=1_000_000, trials=100_000),
        _Sizing(n=1_000_000, trials=400_000),
    ),
}

SUITE_NAMES: Tuple[str, ...] = tuple(_SUITE)

#: Cases that need NumPy; skipped from the *default* selection when it is
#: absent (explicitly requesting one without NumPy raises instead).
VECTORIZED_SUITE_NAMES: Tuple[str, ...] = (
    "vectorized-sifting", "vectorized-snapshot",
)


# ----- report construction ---------------------------------------------------


def _env_fingerprint() -> Dict[str, Any]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": cpus,
    }


def _select_cases(
    suites: Optional[Sequence[str]],
    emit: Callable[[str], None] = lambda message: None,
) -> List[str]:
    """Resolve a ``suites`` request to the list of cases to run.

    Unknown names are rejected up front so a typo cannot silently produce
    an empty gate.  When NumPy is absent, the *default* selection drops the
    vectorized cases (with a log line); an explicit request keeps them, so
    the sweep fails loudly with the backend's install hint instead.
    """
    wanted = list(suites) if suites else list(SUITE_NAMES)
    unknown = [name for name in wanted if name not in _SUITE]
    if unknown:
        raise ConfigurationError(
            f"unknown bench case(s) {unknown}; choose from {SUITE_NAMES}"
        )
    if not suites and not _numpy_available():
        skipped = [n for n in wanted if n in VECTORIZED_SUITE_NAMES]
        if skipped:
            wanted = [n for n in wanted if n not in VECTORIZED_SUITE_NAMES]
            emit(f"bench: skipping {', '.join(skipped)} (NumPy not "
                 "installed; the vectorized backend is unavailable)")
    return wanted


def run_bench_suite(
    *,
    label: str = "local",
    quick: bool = False,
    seed: int = 2012,
    suites: Optional[Sequence[str]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the curated suite and return the versioned bench report.

    ``suites`` restricts the run to named cases (default: all of
    :data:`SUITE_NAMES`); unknown names are rejected up front so a typo
    cannot silently produce an empty gate.
    """
    emit = log or (lambda message: None)
    wanted = _select_cases(suites, emit)
    cases: Dict[str, Any] = {}
    started = time.perf_counter()
    for name in wanted:
        case_fn, quick_sizing, full_sizing = _SUITE[name]
        sizing = quick_sizing if quick else full_sizing
        emit(f"bench: {name} (n={sizing.n}, trials={sizing.trials})...")
        cases[name] = case_fn(sizing, seed)
        emit(f"bench: {name}: "
             f"{cases[name]['steps_per_sec']:.0f} steps/sec")
    return {
        "v": BENCH_SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "seed": seed,
        "created_unix": time.time(),
        "git_sha": git_sha(),
        "env": _env_fingerprint(),
        "elapsed_seconds": time.perf_counter() - started,
        "cases": cases,
    }


def write_bench_json(
    report: Dict[str, Any], path: Union[str, Path]
) -> Path:
    """Write a report canonically; a directory target (existing, or spelled
    with a trailing slash) gets the file ``BENCH_<label>.json``."""
    return write_json(
        report, path,
        dir_name=f"BENCH_{report.get('label', 'local')}.json",
    )


def load_bench_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a report, rejecting foreign schema versions."""
    return expect_versioned(
        load_json_file(path, "bench file"), f"bench file {str(path)!r}",
        BENCH_SCHEMA_VERSION, key="v",
    )


# ----- comparison ------------------------------------------------------------


@dataclass(frozen=True)
class CaseComparison:
    """One case's old-vs-new verdict."""

    name: str
    old_steps_per_sec: Optional[float]
    new_steps_per_sec: Optional[float]
    #: Fractional change in steps/sec; negative = slower.  ``None`` when
    #: the case is missing on either side.
    change: Optional[float]
    regressed: bool
    note: str = ""

    @property
    def change_pct(self) -> Optional[float]:
        """``change`` as a percentage (``-12.5`` = 12.5% slower)."""
        return self.change * 100.0 if self.change is not None else None


@dataclass
class BenchComparison:
    """The full compare verdict between two reports."""

    threshold: float
    cases: List[CaseComparison] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(case.regressed for case in self.cases)

    @property
    def regressions(self) -> List[CaseComparison]:
        return [case for case in self.cases if case.regressed]

    @property
    def new_cases(self) -> List[CaseComparison]:
        """Cases present only in the candidate report.

        A brand-new case has no baseline number to gate against, so it is
        *informational*: it never fails the comparison (``ok`` stays True
        and the CLI exits 0), but it is surfaced loudly — a ``NEW``
        verdict per case and a footer count — so a baseline refresh is not
        forgotten.
        """
        return [
            case for case in self.cases
            if case.old_steps_per_sec is None and not case.regressed
        ]

    def to_json(self) -> Dict[str, Any]:
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "cases": [
                {
                    "name": case.name,
                    "old_steps_per_sec": case.old_steps_per_sec,
                    "new_steps_per_sec": case.new_steps_per_sec,
                    "change": case.change,
                    "change_pct": case.change_pct,
                    "regressed": case.regressed,
                    "note": case.note,
                }
                for case in self.cases
            ],
        }

    def render(self) -> str:
        """Human-readable table for terminal output."""
        lines = [
            f"{'case':<24} {'old steps/s':>12} {'new steps/s':>12} "
            f"{'change':>8}  verdict"
        ]
        for case in self.cases:
            old = (f"{case.old_steps_per_sec:.0f}"
                   if case.old_steps_per_sec is not None else "-")
            new = (f"{case.new_steps_per_sec:.0f}"
                   if case.new_steps_per_sec is not None else "-")
            change = (f"{case.change:+.1%}"
                      if case.change is not None else "-")
            if case.regressed:
                verdict = "REGRESSED"
            elif case.old_steps_per_sec is None:
                verdict = "NEW"
            else:
                verdict = "ok"
            note = f" ({case.note})" if case.note else ""
            lines.append(
                f"{case.name:<24} {old:>12} {new:>12} {change:>8}  "
                f"{verdict}{note}"
            )
        lines.append(
            f"threshold: {self.threshold:.0%} steps/sec regression; "
            + ("all cases within bounds" if self.ok
               else f"{len(self.regressions)} case(s) regressed")
        )
        if self.new_cases:
            names = ", ".join(case.name for case in self.new_cases)
            lines.append(
                f"note: {len(self.new_cases)} new case(s) without a "
                f"baseline (not gated): {names} — refresh the baseline to "
                "start gating them"
            )
        return "\n".join(lines)


def compare_bench(
    old: Dict[str, Any],
    new: Dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchComparison:
    """Diff two bench reports and flag steps/sec regressions.

    A case regresses when its steps/sec dropped by more than ``threshold``
    (a fraction of the old value).  A case present in ``old`` but missing
    from ``new`` also fails — a silently skipped case must not read as a
    pass.  Cases only in ``new`` are recorded informationally.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(
            f"threshold must be a fraction in (0, 1), got {threshold}"
        )
    comparison = BenchComparison(threshold=threshold)
    old_cases = old.get("cases", {})
    new_cases = new.get("cases", {})
    for name in old_cases:
        old_sps = float(old_cases[name]["steps_per_sec"])
        if name not in new_cases:
            comparison.cases.append(CaseComparison(
                name=name, old_steps_per_sec=old_sps,
                new_steps_per_sec=None, change=None, regressed=True,
                note="case missing from new report",
            ))
            continue
        new_sps = float(new_cases[name]["steps_per_sec"])
        if old_sps <= 0:
            comparison.cases.append(CaseComparison(
                name=name, old_steps_per_sec=old_sps,
                new_steps_per_sec=new_sps, change=None, regressed=False,
                note="old steps/sec is zero; not comparable",
            ))
            continue
        change = (new_sps - old_sps) / old_sps
        comparison.cases.append(CaseComparison(
            name=name, old_steps_per_sec=old_sps, new_steps_per_sec=new_sps,
            change=change, regressed=change < -threshold,
        ))
    for name in new_cases:
        if name not in old_cases:
            comparison.cases.append(CaseComparison(
                name=name, old_steps_per_sec=None,
                new_steps_per_sec=float(new_cases[name]["steps_per_sec"]),
                change=None, regressed=False,
                note="new case; no baseline",
            ))
    return comparison


__all__ += ["DEFAULT_THRESHOLD", "VECTORIZED_SUITE_NAMES"]
