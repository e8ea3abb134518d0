"""Million-process growth curves: the paper's separation as a gated artifact.

The headline of the paper is asymptotic: Algorithm 1 finishes in
``O(log* n)`` rounds, Algorithm 2 in ``O(log log n)`` rounds, while the
``DoublingCIL`` baseline pays ``O(log n)``.  At the ``n <= 64`` of the rest
of the experiment suite those classes are numerically indistinguishable;
this runner sweeps ``n`` over decades up to :math:`10^6` and emits a
versioned, *deterministic* plot-data artifact (``GROWTH_curves.json``)
whose curves are checked, point by point, against the
:mod:`repro.analysis.theory` closed forms — the same envelope grading the
PR 5 attribution machinery applies to single traces.

Three measurements per decade:

- **Ensemble work** (all three algorithms): mean/max per-process charged
  steps over seeded trials on the vectorized backend under the
  ``permuted`` lockstep family.  Algorithms 1-2 have fixed-length
  programs, so observed work must *equal* the closed form
  (``relation = "exact"``); the baseline must stay under its bound.
- **Solo work** (the baseline only): the leader's run under the
  front-runner adversary's solo prefix — one process of a
  ``DoublingCILConciliator(n)`` executed alone on the generator backend.
  A solo writer climbs the whole doubling ladder, so this realizes the
  baseline's ``Theta(log n)`` wait-free bound.  Under a benign lockstep
  ensemble the baseline is O(1) per process (somebody writes within a
  pass or two and everyone adopts), which is itself worth pinning: the
  ``log n`` class is an *adversarial* cost, and the fast algorithms'
  flat curves hold under **every** schedule because their program
  lengths are fixed.
- **Sparse-state probe** (the largest decade): one sifting-style round
  driven end to end through the million-process machinery — an
  O(1)-memory :class:`~repro.runtime.streaming.StreamingPermutedSchedule`
  sampling pids into a lazily allocated
  :class:`~repro.memory.register_array.RegisterArray` and an
  auto-sparse :class:`~repro.memory.snapshot.SnapshotObject` — proving
  inside the artifact that the shared-state cost follows the touched
  cells, not ``n``.

Two honesty notes, encoded in the artifact rather than papered over.
First, ``log* n`` and ``log log n`` cannot be separated empirically:
``log*(10^6) = ceil(log log 10^6) = 5`` — they only part ways beyond
``n ~ 2^65536``.  What *is* visible, and what the checks gate, is the
two-group separation — both fast classes flat-ish and within their exact
envelopes, the baseline's solo curve climbing logarithmically away from
them — plus per-curve monotonicity.  Second, with the repo's constants
(``epsilon = 1/2``) Algorithm 1's step count (``2 log* n + 4``) sits at
or *below* Algorithm 2's (``ceil(log log n) + 10``) at every feasible
``n``, so the observed ordering is ``snapshot <= sifting < baseline``,
not the naive "sifting < snapshot < baseline"; the constants dominate
exactly as the paper's asymptotic statement allows.

At ``n = 10^6`` the snapshot conciliator's default priority range
(``ceil(R n^2 / eps) ~ 1.4e13``) no longer fits the vectorized kernel's
packed int64 adoption keys, so the runner caps it to the largest safe
range (still ``>= n^2``, keeping duplicate priorities as improbable as
the paper's tuning requires); the cap is recorded per point as
``priority_range_capped``.  Step counts are unaffected — Algorithm 1
takes exactly ``2R`` steps no matter the range.

Determinism contract (the ``scale-smoke`` CI gate): the report is a pure
function of ``(seed, max_n, epsilon)`` — no wall clock, no git SHA, no
host fingerprint — so :func:`deterministic_view` (everything but the
``label``) byte-compares against the committed
``benchmarks/GROWTH_baseline.json`` on any runner, mirroring the SLO
baseline contract.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import catalog
from repro.analysis.theory import doubling_cil_step_bound, predicted_attribution
from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned, load_json_file
from repro.runtime.rng import derive_seed

__all__ = [
    "GROWTH_SCHEMA_VERSION",
    "DEFAULT_MAX_N",
    "QUICK_MAX_N",
    "compare_growth",
    "decades",
    "deterministic_view",
    "growth_filename",
    "load_growth_json",
    "run_growth_experiment",
    "sparse_round_probe",
    "trials_for",
    "write_growth_json",
]

#: Version stamped on every growth report; bump on incompatible change.
GROWTH_SCHEMA_VERSION = 1

#: The full sweep's largest decade — the million-process regime.
DEFAULT_MAX_N = 10**6

#: The CI smoke sweep's largest decade (quick mode).
QUICK_MAX_N = 10**5

#: Solo-run trials per decade for the baseline ladder (generator backend;
#: each trial is O(log n) steps, so this is cheap at every n).
_SOLO_TRIALS = 32

#: Minimum ratio of the baseline's end-to-end observed growth (solo mean,
#: first decade to last) over the fastest-growing fast-class curve.  The
#: log-n ladder gains ~3.3 steps per decade against log*'s ~1, so the
#: sweep produces ~3-4x; 2x leaves room for solo-trial noise without ever
#: passing on a flat baseline.
_MIN_SEPARATION = 2.0


def decades(max_n: int) -> List[int]:
    """The sweep sizes: powers of ten from 10 up to ``max_n`` inclusive."""
    if max_n < 10:
        raise ConfigurationError(f"max_n must be >= 10, got {max_n}")
    sizes = []
    n = 10
    while n <= max_n:
        sizes.append(n)
        n *= 10
    return sizes


def trials_for(n: int) -> int:
    """Ensemble trials at size ``n``: fixed total work across decades.

    ``~2^21`` scheduled process-slots per point keeps every decade at
    roughly the same wall cost, with floors/caps so small ``n`` stays
    statistically useful and ``10^6`` stays inside CI memory.
    """
    return max(4, min(512, (1 << 21) // n))


def _ensemble_factory(algorithm: str, n: int, epsilon: float) -> Tuple[
    Callable[[], Any], bool
]:
    """(conciliator factory, priority_range_capped) for one curve point;
    the fast classes run at the report's ``epsilon``."""
    if algorithm not in catalog.names("growth_class"):
        raise ConfigurationError(
            f"unknown growth algorithm {algorithm!r}; choose from "
            f"{catalog.names('growth_class')}"
        )
    if algorithm == "snapshot":
        from repro.core.rounds import snapshot_priority_range, snapshot_rounds
        from repro.core.snapshot_conciliator import SnapshotConciliator
        from repro.runtime.vectorized import max_priority_range

        rounds = snapshot_rounds(n, epsilon)
        wanted = snapshot_priority_range(n, epsilon, rounds)
        safe = max_priority_range(n)
        capped = wanted > safe
        chosen = min(wanted, safe)
        if capped and chosen < n * n:  # pragma: no cover - n ~ 2^21+
            raise ConfigurationError(
                f"cannot cap priority range below n^2 at n={n}; "
                "the duplicate-priority bound would no longer hold"
            )
        return (
            lambda: SnapshotConciliator(n, epsilon, priority_range=chosen),
            capped,
        )
    if algorithm == "sifting":
        from repro.core.sifting_conciliator import SiftingConciliator

        return (lambda: SiftingConciliator(n, epsilon)), False
    factory = catalog.get(algorithm).factory
    return (lambda: factory(n)), False


def _predicted(algorithm: str, n: int, epsilon: float) -> Dict[str, Any]:
    """Closed-form envelope for one curve point."""
    if algorithm == "doubling-cil":
        return {
            "individual_steps": doubling_cil_step_bound(n),
            "relation": "upper-bound",
        }
    prediction = predicted_attribution(algorithm, n, epsilon)
    return {
        "individual_steps": prediction["individual_steps"],
        "relation": prediction["relation"],
    }


def _round6(value: float) -> float:
    """Canonical float rounding: keeps the JSON byte-stable and readable."""
    return round(float(value), 6)


def _ensemble_point(
    algorithm: str, n: int, epsilon: float, seed: int, family: str
) -> Dict[str, Any]:
    """One (algorithm, n) ensemble measurement on the vectorized backend."""
    from repro.runtime.vectorized import run_vectorized_sweep

    factory, capped = _ensemble_factory(algorithm, n, epsilon)
    trials = trials_for(n)
    master_seed = derive_seed(seed, "growth", algorithm, f"n-{n}")
    sweep = run_vectorized_sweep(
        factory,
        [pid % 2 for pid in range(n)],
        schedule_family=family,
        trials=trials,
        master_seed=master_seed,
        workers=1,
    )
    prediction = _predicted(algorithm, n, epsilon)
    observed_mean = statistics.fmean(sweep.individual_steps)
    observed_max = max(sweep.individual_steps)
    bound = prediction["individual_steps"]
    if prediction["relation"] == "exact":
        within = observed_max == bound and observed_mean == bound
    else:
        within = observed_max <= bound
    point: Dict[str, Any] = {
        "n": n,
        "trials": trials,
        "observed_mean_steps": _round6(observed_mean),
        "observed_max_steps": _round6(observed_max),
        "mean_total_steps_per_process": _round6(
            statistics.fmean(sweep.total_steps) / n
        ),
        "agreement_rate": _round6(sweep.agreement_count / trials),
        "predicted_steps": bound,
        "relation": prediction["relation"],
        "within_envelope": bool(within),
    }
    if capped:
        point["priority_range_capped"] = True
    return point


def _solo_ladder_point(n: int, seed: int) -> Dict[str, Any]:
    """The baseline's solo-run work at size ``n`` (generator backend).

    Runs the pid-0 program of a ``DoublingCILConciliator(n)`` alone — the
    front-runner adversary's solo prefix, where the register starts empty
    and stays empty until the leader's own coin succeeds, so the leader
    climbs the doubling ladder: ``Theta(log n)`` charged steps.
    """
    from repro.analysis.experiments import trial_seed_tree
    from repro.baselines.doubling_cil import DoublingCILConciliator
    from repro.runtime.scheduler import RoundRobinSchedule
    from repro.runtime.simulator import run_programs

    master_seed = derive_seed(seed, "growth", "cil-solo", f"n-{n}")
    steps: List[int] = []
    for trial in range(_SOLO_TRIALS):
        seeds = trial_seed_tree(master_seed, trial)
        conciliator = DoublingCILConciliator(n)
        result = run_programs(
            [conciliator.program],
            RoundRobinSchedule(1),
            seeds,
            inputs=[0],
        )
        steps.append(result.max_individual_steps)
    bound = doubling_cil_step_bound(n)
    observed_max = max(steps)
    return {
        "trials": _SOLO_TRIALS,
        "observed_mean_steps": _round6(statistics.fmean(steps)),
        "observed_max_steps": _round6(observed_max),
        "predicted_steps": bound,
        "relation": "upper-bound",
        "within_envelope": bool(observed_max <= bound),
    }


def sparse_round_probe(
    n: int, seed: int, slots: Optional[int] = None
) -> Dict[str, Any]:
    """One sifting-style round at scale through the sparse/streaming stack.

    Samples ``slots`` pids (default: one full pass, ``n``) from an
    O(1)-memory :class:`~repro.runtime.streaming.StreamingPermutedSchedule`;
    each scheduled pid performs its single round-1 operation — a seeded
    coin picks write or read — on a lazily allocated
    :class:`~repro.memory.register_array.RegisterArray`, and a strided
    subset additionally updates an auto-sparse
    :class:`~repro.memory.snapshot.SnapshotObject` that is scanned once at
    the end.  Returns deterministic allocation accounting: the point is
    that a million-process round touches a *constant* number of shared
    cells plus one snapshot component per actual writer.

    (Objects are driven through ``apply`` directly rather than the
    ``Simulator`` — the probe measures the shared-state layer, not the
    process machinery, which the ensemble sweep already covers.)
    """
    from repro.memory.register_array import RegisterArray
    from repro.memory.snapshot import SnapshotObject
    from repro.runtime.operations import Read, Scan, Update, Write
    from repro.runtime.streaming import StreamingPermutedSchedule, _mix64

    if slots is None:
        slots = n
    schedule = StreamingPermutedSchedule(n, derive_seed(seed, "probe"))
    registers = RegisterArray(name="growth-r")
    snapshot = SnapshotObject(n, "growth-A")
    round_register = registers[1]
    snapshot_stride = max(1, n // 64)
    writes = reads = updates = 0
    for step in range(slots):
        pid = schedule.pid_at(step)
        if _mix64(seed ^ (pid << 1)) & 1:
            round_register.apply(Write(round_register, pid), pid)
            writes += 1
        else:
            round_register.apply(Read(round_register), pid)
            reads += 1
        if pid % snapshot_stride == 0:
            snapshot.apply(Update(snapshot, pid), pid)
            updates += 1
    view = snapshot.apply(Scan(snapshot), 0)
    return {
        "n": n,
        "slots": slots,
        "writes": writes,
        "reads": reads,
        "snapshot_updates": updates,
        "registers_allocated": len(registers),
        "snapshot_sparse": snapshot.sparse,
        "snapshot_components_touched": snapshot.touched_components,
        "scan_view_touched": sum(1 for entry in view if entry is not None),
    }


def _checks(curves: Dict[str, List[Dict[str, Any]]],
            solo: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The gateable verdicts: envelopes, monotonicity, separation."""
    within = all(
        point["within_envelope"]
        for points in curves.values() for point in points
    ) and all(point["within_envelope"] for point in solo)
    monotone = all(
        points[i]["observed_max_steps"] <= points[i + 1]["observed_max_steps"]
        for name, points in curves.items() if name != "doubling-cil"
        for i in range(len(points) - 1)
    ) and all(
        solo[i]["observed_mean_steps"] <= solo[i + 1]["observed_mean_steps"]
        for i in range(len(solo) - 1)
    )
    top = {
        name: points[-1]["observed_max_steps"]
        for name, points in curves.items()
    }
    fast_group_max = max(top["snapshot"], top["sifting"])
    baseline_solo_mean = solo[-1]["observed_mean_steps"]
    # Separation is a statement about *growth*: the baseline's solo curve
    # must climb decades at >= _MIN_SEPARATION times the rate of the
    # fastest-growing fast-class curve, and must have crossed above the
    # fast group by the largest decade.  (A plain end-value ratio cannot
    # work here: eps-tail constants put the fast group near 15 steps while
    # log2(2n) only reaches ~21 at n = 10^6 — the classes separate in
    # slope long before they separate in magnitude.)
    fast_growth = max(
        curves[name][-1]["observed_max_steps"]
        - curves[name][0]["observed_max_steps"]
        for name in ("snapshot", "sifting")
    )
    baseline_growth = (
        solo[-1]["observed_mean_steps"] - solo[0]["observed_mean_steps"]
    )
    ratio = baseline_growth / max(fast_growth, 1.0)
    crossed = baseline_solo_mean > fast_group_max
    separated = ratio >= _MIN_SEPARATION and crossed
    ordering = sorted(
        catalog.names("growth_class"),
        key=lambda name: (
            baseline_solo_mean if name == "doubling-cil" else top[name]
        ),
    )
    return {
        "within_envelope": bool(within),
        "monotone": bool(monotone),
        "fast_group_max_steps": _round6(fast_group_max),
        "baseline_solo_mean_steps": _round6(baseline_solo_mean),
        "fast_group_growth_steps": _round6(fast_growth),
        "baseline_solo_growth_steps": _round6(baseline_growth),
        "growth_ratio": _round6(ratio),
        "crossed_at_max_n": bool(crossed),
        "separated": bool(separated),
        "observed_ordering": ordering,
        "ok": bool(within and monotone and separated),
    }


def run_growth_experiment(
    *,
    label: str = "local",
    seed: int = 2012,
    epsilon: float = 0.5,
    max_n: int = DEFAULT_MAX_N,
    schedule_family: str = "permuted",
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the full growth sweep and return the versioned report.

    Requires NumPy (the ensemble sweep runs on the vectorized backend);
    raises :class:`ConfigurationError` with the usual install hint when it
    is absent.  The sparse probe walks one full pass of the largest
    decade.
    """
    from repro.runtime.vectorized import numpy_available

    if not numpy_available():
        raise ConfigurationError(
            "the growth experiment's ensemble sweep needs the vectorized "
            "backend; install NumPy with `pip install numpy`"
        )
    emit = log or (lambda message: None)
    sizes = decades(max_n)
    curves: Dict[str, List[Dict[str, Any]]] = {}
    for algorithm in catalog.names("growth_class"):
        points = []
        for n in sizes:
            emit(f"growth: {algorithm} n={n} "
                 f"(trials={trials_for(n)}, vectorized)...")
            points.append(
                _ensemble_point(algorithm, n, epsilon, seed, schedule_family)
            )
        curves[algorithm] = points
    solo = []
    for n in sizes:
        emit(f"growth: doubling-cil solo ladder n={n} "
             f"(trials={_SOLO_TRIALS}, generator)...")
        solo.append({"n": n, **_solo_ladder_point(n, seed)})
    emit(f"growth: sparse round probe n={sizes[-1]}...")
    probe = sparse_round_probe(sizes[-1], seed)
    checks = _checks(curves, solo)
    emit(
        "growth: checks "
        + ("ok" if checks["ok"] else "FAILED")
        + f" (growth ratio {checks['growth_ratio']}x, "
        f"ordering {' <= '.join(checks['observed_ordering'])})"
    )
    return {
        "v": GROWTH_SCHEMA_VERSION,
        "label": label,
        "seed": seed,
        "epsilon": epsilon,
        "max_n": max_n,
        "schedule_family": schedule_family,
        "backend": "vectorized+generator-solo",
        "classes": {
            record.name: record.growth_class
            for record in catalog.CATALOG if record.growth_class
        },
        "note": (
            "log* n and ceil(log log n) are numerically equal up to n=10^6 "
            "(they separate only beyond n ~ 2^65536); the gated separation "
            "is the fast group (snapshot, sifting; flat, exact envelopes) "
            "vs the baseline's solo-run log n ladder. With epsilon=1/2 "
            "constants, snapshot <= sifting at every feasible n."
        ),
        "curves": curves,
        "baseline_solo": solo,
        "sparse_probe": probe,
        "checks": checks,
    }


# ----- serialization and the baseline gate -----------------------------------


def growth_filename(label: str) -> str:
    """Canonical on-disk name for a labeled report."""
    return f"GROWTH_{label}.json"


def write_growth_json(
    report: Dict[str, Any], path: Union[str, Path]
) -> Path:
    """Write a report canonically (sorted keys, trailing newline).

    Directory targets (existing, or spelled with a trailing slash) get the
    canonical ``GROWTH_<label>.json`` name, like the bench reports.
    """
    wants_dir = str(path).endswith(("/", os.sep))
    path = Path(path)
    if path.is_dir() or wants_dir:
        path = path / growth_filename(str(report.get("label", "local")))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_growth_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a report, rejecting foreign schema versions."""
    return expect_versioned(
        load_json_file(path, "growth file"), f"growth file {str(path)!r}",
        GROWTH_SCHEMA_VERSION, key="v",
    )


def deterministic_view(report: Dict[str, Any]) -> Dict[str, Any]:
    """The byte-comparable projection: everything except the label.

    The growth report carries no wall clock, git SHA, or host fingerprint
    by design, so two runs with equal ``(seed, epsilon, max_n)`` agree on
    this view byte for byte on any machine.
    """
    return {key: value for key, value in report.items() if key != "label"}


def compare_growth(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[bool, str]:
    """Byte-compare two reports' deterministic views.

    Returns ``(ok, message)``; on mismatch the message names the first
    divergent top-level key so CI logs point somewhere useful.
    """
    old_view = deterministic_view(old)
    new_view = deterministic_view(new)
    old_bytes = json.dumps(old_view, indent=2, sort_keys=True)
    new_bytes = json.dumps(new_view, indent=2, sort_keys=True)
    if old_bytes == new_bytes:
        return True, "growth report matches the baseline byte for byte"
    for key in sorted(set(old_view) | set(new_view)):
        if json.dumps(old_view.get(key), sort_keys=True) != json.dumps(
            new_view.get(key), sort_keys=True
        ):
            return False, (
                f"growth report diverges from the baseline at key {key!r}"
            )
    return False, "growth reports differ"  # pragma: no cover - unreachable
