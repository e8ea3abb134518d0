"""The paper's experiments, E1-E20, as reusable table builders.

Each function reproduces one claim from the paper (see DESIGN.md's
experiment index) and returns an :class:`ExperimentTable` pairing the
measured series with the paper's predicted values and a shape verdict.
``python -m repro experiments`` is the one driver: it prints the selected
tables and exits 1 when any verdict fails.  Its output at the default
scale is committed as ``benchmarks/results/experiments.txt``.

The ``scale`` parameter multiplies trial counts (0.25 by default, 1.0 for
the tables recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

from repro.adoptcommit.collect_ac import CollectAdoptCommit
from repro.adoptcommit.encoders import IntEncoder
from repro.adoptcommit.flag_ac import FlagAdoptCommit
from repro.adoptcommit.snapshot_ac import SnapshotAdoptCommit
from repro.analysis.experiments import (
    decay_series,
    run_conciliator_trials,
    run_consensus_trials,
)
from repro.analysis.tables import render_table
from repro.analysis.theory import (
    cil_total_steps_bound,
    doubling_cil_step_bound,
    sifting_decay_bound,
    sifting_step_count,
    snapshot_decay_bound,
    snapshot_step_count,
)
from repro.baselines.doubling_cil import DoublingCILConciliator
from repro.core.cil_embedded import CILEmbeddedConciliator, INNER_EPSILON
from repro.core.consensus import register_consensus, snapshot_consensus
from repro.core.probabilities import paper_sift_p, sift_p_schedule
from repro.core.rounds import log_star, sifting_rounds, snapshot_rounds
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.errors import ConfigurationError
from repro.runtime.rng import SeedTree
from repro.workloads.schedules import make_schedule

__all__ = ["ExperimentTable", "ALL_EXPERIMENTS", "select_experiments"] + [
    f"e{i}" for i in range(1, 21)
]


@dataclass
class ExperimentTable:
    """One reproduced experiment: id, claim, table, and shape verdict."""

    experiment_id: str
    claim: str
    headers: List[str]
    rows: List[List[Any]]
    notes: str = ""
    shape_holds: bool = True

    def render(self) -> str:
        title = f"[{self.experiment_id}] {self.claim}"
        body = render_table(self.headers, self.rows, title=title)
        parts = [body]
        if self.notes:
            parts.append(f"note: {self.notes}")
        parts.append(f"shape holds: {self.shape_holds}")
        return "\n".join(parts)


def _trials(base: int, scale: float) -> int:
    return max(3, int(round(base * scale)))


# ---------------------------------------------------------------------------
# E1 / E3: survivor decay curves
# ---------------------------------------------------------------------------

def e1_snapshot_decay(scale: float = 1.0, n: int = 64) -> ExperimentTable:
    """Lemma 1: mean excess personae per round vs the f-iteration bound."""
    trials = _trials(60, scale)
    series = decay_series(
        lambda: SnapshotConciliator(n),
        list(range(n)),
        trials=trials,
        master_seed=101,
    )
    bounds = snapshot_decay_bound(n, len(series))
    rows = []
    ok = True
    for index, survivors in enumerate(series):
        measured = survivors - 1.0
        bound = bounds[index]
        within = measured <= bound * 1.35 + 0.25
        ok = ok and within
        rows.append([index + 1, round(measured, 3), round(bound, 3), within])
    return ExperimentTable(
        "E1",
        f"Lemma 1 decay, n={n}: E[X_i] <= f^(i)(n-1), f(x)=min(ln(x+1), x/2)",
        ["round", "measured E[X_i]", "paper bound", "within"],
        rows,
        notes=f"{trials} trials, random oblivious schedule",
        shape_holds=ok,
    )


def e3_sifting_decay(scale: float = 1.0, n: int = 256) -> ExperimentTable:
    """Lemmas 3/4: mean excess personae per round vs x_i then (3/4)-decay."""
    trials = _trials(60, scale)
    series = decay_series(
        lambda: SiftingConciliator(n),
        list(range(n)),
        trials=trials,
        master_seed=103,
    )
    bounds = sifting_decay_bound(n, len(series))
    rows = []
    ok = True
    for index, survivors in enumerate(series):
        measured = survivors - 1.0
        bound = bounds[index]
        within = measured <= bound * 1.35 + 0.3
        ok = ok and within
        rows.append([index + 1, round(measured, 3), round(bound, 3), within])
    return ExperimentTable(
        "E3",
        f"Lemmas 3-4 decay, n={n}: E[X_i] <= x_i = 2^(2-2^(1-i))(n-1)^(2^-i), "
        "then *(3/4)/round",
        ["round", "measured E[X_i]", "paper bound", "within"],
        rows,
        notes=f"{trials} trials; switch to p=1/2 after ceil(log log n) rounds",
        shape_holds=ok,
    )


# ---------------------------------------------------------------------------
# E2 / E4: conciliator guarantees over the (n, eps) grid
# ---------------------------------------------------------------------------

def e2_snapshot_conciliator(scale: float = 1.0) -> ExperimentTable:
    """Theorem 1: agreement >= 1-eps at exactly 2R steps per process."""
    trials = _trials(80, scale)
    rows = []
    ok = True
    for n in (4, 16, 64, 256):
        for epsilon in (0.5, 0.25):
            stats = run_conciliator_trials(
                lambda: SnapshotConciliator(n, epsilon=epsilon),
                list(range(n)),
                trials=trials,
                master_seed=2000 + n,
            )
            floor = 1 - epsilon
            steps = snapshot_step_count(n, epsilon)
            within = (
                stats.agreement_interval[1] >= floor
                and stats.individual_steps.maximum == steps
                and stats.validity_failures == 0
            )
            ok = ok and within
            rows.append([
                n, epsilon, round(stats.agreement_rate, 3), floor,
                int(stats.individual_steps.maximum), steps, within,
            ])
    return ExperimentTable(
        "E2",
        "Theorem 1: snapshot conciliator, agreement >= 1-eps in "
        "2(log* n + log(1/eps) + 1) steps",
        ["n", "eps", "agreement", "paper floor", "steps", "paper steps",
         "within"],
        rows,
        notes=f"{trials} trials/cell, id-consensus inputs",
        shape_holds=ok,
    )


def e4_sifting_conciliator(scale: float = 1.0) -> ExperimentTable:
    """Theorem 2: agreement >= 1-eps at exactly R steps per process."""
    trials = _trials(80, scale)
    rows = []
    ok = True
    for n in (4, 16, 64, 256, 1024):
        for epsilon in (0.5, 0.25):
            stats = run_conciliator_trials(
                lambda: SiftingConciliator(n, epsilon=epsilon),
                list(range(n)),
                trials=trials,
                master_seed=4000 + n,
            )
            floor = 1 - epsilon
            steps = sifting_step_count(n, epsilon)
            within = (
                stats.agreement_interval[1] >= floor
                and stats.individual_steps.maximum == steps
                and stats.validity_failures == 0
            )
            ok = ok and within
            rows.append([
                n, epsilon, round(stats.agreement_rate, 3), floor,
                int(stats.individual_steps.maximum), steps, within,
            ])
    return ExperimentTable(
        "E4",
        "Theorem 2: sifting conciliator, agreement >= 1-eps in "
        "ceil(log log n) + ceil(log_{4/3}(8/eps)) steps",
        ["n", "eps", "agreement", "paper floor", "steps", "paper steps",
         "within"],
        rows,
        notes=f"{trials} trials/cell, id-consensus inputs",
        shape_holds=ok,
    )


# ---------------------------------------------------------------------------
# E5: Theorem 3 (CIL embedding)
# ---------------------------------------------------------------------------

def e5_cil_embedded(scale: float = 1.0) -> ExperimentTable:
    """Theorem 3: agreement >= 1/8, O(log log n) individual, O(n) total.

    Includes the end-of-Section-4 variant embedding Algorithm 1 instead of
    Algorithm 2, which has O(log* n) worst-case individual steps with the
    same O(n) expected total.
    """
    trials = _trials(60, scale)
    rows = []
    ok = True
    variants = {
        "sifter": lambda n: CILEmbeddedConciliator(n),
        "snapshot": lambda n: CILEmbeddedConciliator(
            n,
            inner_factory=lambda count: SnapshotConciliator(
                count, epsilon=INNER_EPSILON
            ),
        ),
    }
    for variant, make in variants.items():
        for n in (8, 32, 128, 256):
            stats = run_conciliator_trials(
                lambda: make(n),
                list(range(n)),
                trials=trials,
                master_seed=5000 + n,
            )
            inner = make(n).inner.step_bound()
            individual_bound = 2 * (inner + 1) + 7
            total_bound = cil_total_steps_bound(n)
            within = (
                stats.agreement_interval[1] >= 1 / 8
                and stats.individual_steps.maximum <= individual_bound
                and stats.total_steps.mean <= total_bound
                and stats.validity_failures == 0
            )
            ok = ok and within
            rows.append([
                variant, n, round(stats.agreement_rate, 3), round(1 / 8, 3),
                int(stats.individual_steps.maximum), individual_bound,
                round(stats.total_steps.mean / n, 2),
                round(total_bound / n, 1), within,
            ])
    return ExperimentTable(
        "E5",
        "Theorem 3: CIL-embedded conciliator — agreement >= 1/8, worst-case "
        "O(log log n) (sifter inner) or O(log* n) (snapshot inner, end of "
        "Section 4) individual steps, O(n) expected total steps",
        ["inner", "n", "agreement", "floor", "max steps", "step bound",
         "total/n", "bound/n", "within"],
        rows,
        notes=f"{trials} trials/row; total/n flat ~ linear total work",
        shape_holds=ok,
    )


# ---------------------------------------------------------------------------
# E6 / E7: full consensus
# ---------------------------------------------------------------------------

def e6_snapshot_consensus(scale: float = 1.0) -> ExperimentTable:
    """Corollary 1: O(log* n) expected individual steps, snapshot model."""
    trials = _trials(25, scale)
    rows = []
    ok = True
    for n in (4, 16, 64, 256):
        stats = run_consensus_trials(
            lambda: snapshot_consensus(n),
            list(range(n)),
            trials=trials,
            master_seed=6000 + n,
        )
        per_phase = snapshot_step_count(n, 0.5) + 4  # conciliator + AC
        normalized = stats.individual_steps.mean / per_phase
        within = stats.all_safe and normalized < 4.0
        ok = ok and within
        rows.append([
            n, log_star(n), round(stats.individual_steps.mean, 2), per_phase,
            round(normalized, 2), round(stats.phases.mean, 2), within,
        ])
    return ExperimentTable(
        "E6",
        "Corollary 1: snapshot-model consensus in O(log* n) expected "
        "individual steps (unbounded input domain)",
        ["n", "log* n", "mean steps", "steps/phase", "phases-equiv",
         "mean phases", "within"],
        rows,
        notes=(f"{trials} trials/row; 'phases-equiv' (mean steps over "
               "single-phase cost) staying ~constant is the O(log* n) shape"),
        shape_holds=ok,
    )


def e7_register_consensus(scale: float = 1.0) -> ExperimentTable:
    """Corollaries 2/3: register-model consensus cost in n and m."""
    trials = _trials(25, scale)
    rows = []
    ok = True
    # Sweep n at fixed m.
    m = 8
    for n in (8, 32, 128):
        stats = run_consensus_trials(
            lambda: register_consensus(n, value_domain=range(m)),
            [pid % m for pid in range(n)],
            trials=trials,
            master_seed=7000 + n,
        )
        within = stats.all_safe
        ok = ok and within
        rows.append([
            "sweep-n", n, m, round(stats.individual_steps.mean, 2),
            round(stats.phases.mean, 2), "-", within,
        ])
    # Sweep m at fixed n.
    n = 16
    for m in (2, 16, 256, 4096):
        stats = run_consensus_trials(
            lambda: register_consensus(n, value_domain=range(m)),
            [pid % m for pid in range(n)],
            trials=trials,
            master_seed=7100 + m,
        )
        ac_cost = FlagAdoptCommit(n, IntEncoder(m)).step_bound()
        within = stats.all_safe
        ok = ok and within
        rows.append([
            "sweep-m", n, m, round(stats.individual_steps.mean, 2),
            round(stats.phases.mean, 2), ac_cost, within,
        ])
    # Shape: the m-sweep's mean steps grow with m.
    m_means = [row[3] for row in rows if row[0] == "sweep-m"]
    ok = ok and m_means == sorted(m_means)
    # Corollary 3: linear-total-work variant.
    for n in (32, 128):
        stats = run_consensus_trials(
            lambda: register_consensus(
                n, value_domain=range(8), linear_total_work=True
            ),
            [pid % 8 for pid in range(n)],
            trials=trials,
            master_seed=7200 + n,
        )
        within = stats.all_safe
        ok = ok and within
        rows.append([
            "cor-3", n, 8, round(stats.individual_steps.mean, 2),
            round(stats.phases.mean, 2),
            f"total/n={stats.total_steps.mean / n:.1f}", within,
        ])
    return ExperimentTable(
        "E7",
        "Corollaries 2-3: register-model consensus, "
        "O(log log n + log m) expected individual steps "
        "(our adopt-commit is O(log m) vs the paper's O(log m/log log m))",
        ["sweep", "n", "m", "mean steps", "mean phases", "AC cost/total",
         "within"],
        rows,
        notes=(f"{trials} trials/row; mean-steps grows with log m down the "
               "m-sweep and barely moves down the n-sweep"),
        shape_holds=ok,
    )


# ---------------------------------------------------------------------------
# E8: baseline comparison
# ---------------------------------------------------------------------------

def e8_baseline_comparison(scale: float = 1.0) -> ExperimentTable:
    """Intro claim: log log n sifting beats the prior O(log n) approach."""
    trials = _trials(40, scale)
    rows = []
    ok = True
    for n in (8, 64, 512, 4096):
        sifting_steps = SiftingConciliator(n).step_bound()
        baseline = run_conciliator_trials(
            lambda: DoublingCILConciliator(n),
            list(range(n)),
            trials=trials,
            master_seed=8000 + n,
        )
        baseline_bound = doubling_cil_step_bound(n)
        wins = sifting_steps < baseline_bound
        # The crossover: sifting's eps-tail constant dominates for tiny n;
        # from n=64 on, log log n + const < 2 log 2n must hold.
        if n >= 64:
            ok = ok and wins
        ok = ok and baseline.validity_failures == 0
        rows.append([
            n, sifting_steps, round(baseline.individual_steps.mean, 2),
            baseline_bound, round(baseline.agreement_rate, 3), wins,
        ])
    gaps = [row[3] - row[1] for row in rows]
    ok = ok and all(gaps[i] <= gaps[i + 1] for i in range(len(gaps) - 1))
    return ExperimentTable(
        "E8",
        "Introduction: sifting (log log n) vs doubling-CIL baseline (log n); "
        "sifting wins from the crossover (~n=64, where the eps-tail constant "
        "is amortized) and the gap widens with n",
        ["n", "sifting steps", "baseline mean steps", "baseline bound",
         "baseline agreement", "sifting wins"],
        rows,
        notes=f"{trials} trials/row for the randomized baseline",
        shape_holds=ok,
    )


# ---------------------------------------------------------------------------
# E9 / E10: ablations
# ---------------------------------------------------------------------------

def e9_priority_range_ablation(scale: float = 1.0, n: int = 16) -> ExperimentTable:
    """Section 2's duplicate budget: Pr[D] <= eps/2 at the paper's range."""
    trials = _trials(80, scale)
    rows = []
    epsilon = 0.5
    rounds = snapshot_rounds(n, epsilon)
    paper_range = None
    from repro.core.rounds import snapshot_priority_range

    paper_range = snapshot_priority_range(n, epsilon, rounds)
    ok = True
    for priority_range in (2, 16, 256, paper_range):
        duplicate_runs = 0
        agreements = 0
        for trial in range(trials):
            conciliator = SnapshotConciliator(
                n, epsilon=epsilon, priority_range=priority_range
            )
            seeds = SeedTree(9000 + priority_range * 1000 + trial)
            schedule = make_schedule("random", n, seeds.child("schedule"))
            from repro.core.conciliator import run_conciliator

            result = run_conciliator(
                conciliator, list(range(n)), schedule, seeds
            )
            duplicate_runs += conciliator.duplicate_priority_rounds() > 0
            agreements += result.agreement
        duplicate_rate = duplicate_runs / trials
        label = "paper" if priority_range == paper_range else str(priority_range)
        rows.append([
            label, priority_range, round(duplicate_rate, 3),
            round(agreements / trials, 3),
        ])
        if priority_range == paper_range:
            ok = ok and duplicate_rate <= epsilon / 2 + 0.1
    # Shape: duplicate rate decreases as the range grows.
    dup_rates = [row[2] for row in rows]
    ok = ok and all(dup_rates[i] >= dup_rates[i + 1] - 1e-9
                    for i in range(len(dup_rates) - 1))
    return ExperimentTable(
        "E9",
        "Ablation (Section 2): priority range vs duplicate-priority event D; "
        f"paper range ceil(R n^2/eps) keeps Pr[D] <= eps/2 (n={n})",
        ["range label", "range", "Pr[any duplicate]", "agreement"],
        rows,
        notes=f"{trials} trials/row, eps=0.5",
        shape_holds=ok,
    )


def e10_p_schedule_ablation(scale: float = 1.0, n: int = 256) -> ExperimentTable:
    """Section 3's choice of p_i: tuned schedule vs alternatives."""
    trials = _trials(50, scale)
    rounds = sifting_rounds(n, 0.5)
    schedules = {
        "tuned (ours)": sift_p_schedule(n, rounds),
        "paper eq. (3)": [
            paper_sift_p(i, n) if i <= sifting_rounds(n, 0.5) else 0.5
            for i in range(1, rounds + 1)
        ],
        "fixed 1/2": [0.5] * rounds,
        "fixed 1/sqrt(n)": [1 / math.sqrt(n)] * rounds,
    }
    # Fix the paper-eq variant's tail to 1/2 as the paper does.
    from repro.core.rounds import sifting_switch_round

    switch = sifting_switch_round(n)
    schedules["paper eq. (3)"] = [
        paper_sift_p(i, n) if i <= switch else 0.5
        for i in range(1, rounds + 1)
    ]
    rows = []
    survivors_by_label = {}
    for label, p_schedule in schedules.items():
        series = decay_series(
            lambda: SiftingConciliator(n, rounds=rounds, p_schedule=p_schedule),
            list(range(n)),
            trials=trials,
            master_seed=10_000,
        )
        agreement = run_conciliator_trials(
            lambda: SiftingConciliator(n, rounds=rounds, p_schedule=p_schedule),
            list(range(n)),
            trials=trials,
            master_seed=10_001,
        ).agreement_rate
        survivors_by_label[label] = series
        # decay_series index i holds the survivors after round i + 1.
        rows.append([
            label, round(series[switch - 1], 2),
            round(series[-1], 2), round(agreement, 3),
        ])
    # Shape: the tuned schedule sifts far faster than fixed 1/2 early on,
    # so its survivors after the switch round sit below fixed 1/2's.
    ok = (
        survivors_by_label["tuned (ours)"][switch - 1]
        < survivors_by_label["fixed 1/2"][switch - 1]
    )
    return ExperimentTable(
        "E10",
        f"Ablation (Section 3): write-probability schedules, n={n} — tuned "
        "p_i crushes survivors in ceil(log log n) rounds; fixed 1/2 cannot",
        ["schedule", "survivors@switch", "survivors@end", "agreement"],
        rows,
        notes=(f"{trials} trials/row, R={rounds}, switch after round "
               f"{switch}; eq. (3) as printed differs from the "
               "self-consistent p_i by <= 4x and still sifts at sqrt rate"),
        shape_holds=ok,
    )


# ---------------------------------------------------------------------------
# E11: max-register variant, E12: adopt-commit costs
# ---------------------------------------------------------------------------

def e11_max_register_variant(scale: float = 1.0, n: int = 64) -> ExperimentTable:
    """Footnote 1: max registers can replace snapshots in Algorithm 1."""
    trials = _trials(60, scale)
    results = {}
    for label, use_max in (("snapshot", False), ("max-register", True)):
        stats = run_conciliator_trials(
            lambda: SnapshotConciliator(n, use_max_registers=use_max),
            list(range(n)),
            trials=trials,
            master_seed=11_000,
        )
        series = decay_series(
            lambda: SnapshotConciliator(n, use_max_registers=use_max),
            list(range(n)),
            trials=trials,
            master_seed=11_001,
        )
        results[label] = (stats, series)
    rows = []
    for label, (stats, series) in results.items():
        rows.append([
            label, round(stats.agreement_rate, 3),
            int(stats.individual_steps.maximum),
            round(series[0], 2), round(series[-1], 2),
        ])
    snap_stats, snap_series = results["snapshot"]
    max_stats, max_series = results["max-register"]
    ok = (
        abs(snap_stats.agreement_rate - max_stats.agreement_rate) <= 0.15
        and abs(snap_series[0] - max_series[0]) <= 3.0
        and snap_stats.individual_steps.maximum
        == max_stats.individual_steps.maximum
    )
    return ExperimentTable(
        "E11",
        f"Footnote 1: Algorithm 1 on max registers behaves like the "
        f"snapshot version (n={n})",
        ["variant", "agreement", "steps", "survivors@1", "survivors@end"],
        rows,
        notes=f"{trials} trials/row, same step count by construction",
        shape_holds=ok,
    )


def e12_adopt_commit_cost(scale: float = 1.0, n: int = 16) -> ExperimentTable:
    """Corollary 2 discussion: adopt-commit cost dominates for large m."""
    rows = []
    ok = True
    for m in (2, 16, 256, 4096, 65536):
        flag_cost = FlagAdoptCommit(n, IntEncoder(m)).step_bound()
        snapshot_cost = SnapshotAdoptCommit(n).step_bound()
        collect_cost = CollectAdoptCommit(n).step_bound()
        conciliator_cost = sifting_step_count(n, 0.5)
        dominated = flag_cost > conciliator_cost
        rows.append([
            m, flag_cost, snapshot_cost, collect_cost, conciliator_cost,
            dominated,
        ])
    # Shape: flag cost grows with m; snapshot cost constant; for large m the
    # adopt-commit dominates the conciliator (the paper's break-even story).
    flag_costs = [row[1] for row in rows]
    ok = all(flag_costs[i] < flag_costs[i + 1] for i in range(len(flag_costs) - 1))
    ok = ok and rows[-1][5]
    return ExperimentTable(
        "E12",
        f"Adopt-commit cost vs m (n={n}): register AC grows ~3 log2 m, "
        "snapshot AC is O(1); for large m the AC dominates consensus cost",
        ["m", "flag AC steps", "snapshot AC", "collect AC",
         "sifting conciliator", "AC dominates"],
        rows,
        notes="worst-case step bounds (exact, not sampled)",
        shape_holds=ok,
    )


# ---------------------------------------------------------------------------
# E13-E17: extensions (one-round scaling, TAS, emulation costs, space)
# ---------------------------------------------------------------------------

def e13_one_round_scaling(scale: float = 1.0) -> ExperimentTable:
    """Conclusions' open question, measured: survivors after ONE round.

    The paper conjectures a lower bound might show Omega(log n) values
    remain after one snapshot layer and Omega(n^c) after one register
    layer.  Our upper-bound side: one snapshot round leaves ~H_n survivors
    (harmonic — Lemma 1) and one sifting round ~2 sqrt(n) (Lemma 2).
    """
    from repro.analysis.theory import harmonic
    from repro.core.probabilities import sift_x

    trials = _trials(50, scale)
    rows = []
    snap_values = {}
    sift_values = {}
    for n in (16, 64, 256, 1024):
        snap = decay_series(
            lambda: SnapshotConciliator(n, rounds=1),
            list(range(n)), trials=trials, master_seed=13_000 + n,
        )[0]
        sift = decay_series(
            lambda: SiftingConciliator(n, rounds=1),
            list(range(n)), trials=trials, master_seed=13_100 + n,
        )[0]
        snap_values[n] = snap
        sift_values[n] = sift
        rows.append([
            n, round(snap, 2), round(harmonic(n), 2),
            round(sift, 2), round(1 + sift_x(1, n), 2),
        ])
    # Shapes: snapshot survivors grow additively (~ln 4 per 4x n); sifting
    # survivors roughly double per 4x n (sqrt growth); both under bounds.
    ok = all(
        snap_values[n] <= harmonic(n) + 1.0 for n in snap_values
    ) and all(
        sift_values[n] <= 1 + sift_x(1, n) * 1.35 for n in sift_values
    )
    sift_ratio = sift_values[1024] / sift_values[64]
    snap_gap = snap_values[1024] - snap_values[64]
    ok = ok and 2.0 <= sift_ratio <= 6.5 and snap_gap <= 4.0
    # The qualitative gap: at n=1024 one register layer retains far more
    # values than one snapshot layer.
    ok = ok and rows[-1][3] > 4 * rows[-1][1]
    return ExperimentTable(
        "E13",
        "One layer of computation: snapshot round leaves ~H_n survivors "
        "(log growth), sifting round ~2 sqrt(n) (power-law growth)",
        ["n", "snapshot survivors", "H_n", "sifting survivors",
         "1 + 2 sqrt(n-1)"],
        rows,
        notes=f"{trials} trials/row; the conjectured lower-bound shapes "
              "from the paper's conclusions, seen from the upper-bound side",
        shape_holds=ok,
    )


def e14_test_and_set(scale: float = 1.0) -> ExperimentTable:
    """Section 5's sibling problem: sifting test-and-set ([1] structure)."""
    from repro.runtime.simulator import run_programs
    from repro.tas.sifting_tas import WINNER, SiftingTestAndSet

    trials = _trials(40, scale)
    rows = []
    ok = True
    for n in (4, 16, 64, 256):
        winner_violations = 0
        survivors = []
        loser_steps = []
        max_steps = 0
        for trial in range(trials):
            seeds = SeedTree(14_000 + n * 1_000 + trial)
            tas = SiftingTestAndSet(n)
            schedule = make_schedule("random", n, seeds.child("schedule"))
            result = run_programs([tas.program] * n, schedule, seeds)
            winners = [pid for pid, out in result.outputs.items()
                       if out == WINNER]
            winner_violations += len(winners) != 1
            survivors.append(tas.filter_survivors)
            max_steps = max(max_steps, result.max_individual_steps)
            loser_steps.extend(
                result.steps_by_pid[pid] for pid in result.outputs
                if pid not in winners
            )
        mean_survivors = sum(survivors) / len(survivors)
        mean_loser = sum(loser_steps) / len(loser_steps) if loser_steps else 0
        ok = ok and winner_violations == 0 and mean_survivors <= 8.0
        rows.append([
            n, winner_violations, round(mean_survivors, 2),
            SiftingTestAndSet(n).filter_step_bound(),
            round(mean_loser, 2), max_steps,
        ])
    return ExperimentTable(
        "E14",
        "Sifting test-and-set (Alistarh-Aspnes structure): unique winner "
        "always; the O(log log n) filter leaves O(1) expected survivors "
        "for the backup",
        ["n", "winner violations", "mean filter survivors", "filter rounds",
         "mean loser steps", "max steps"],
        rows,
        notes=f"{trials} trials/row; backup is this library's consensus "
              "(substituting [1]'s RatRace; see DESIGN.md)",
        shape_holds=ok,
    )


def e15_emulated_snapshot_cost(scale: float = 1.0) -> ExperimentTable:
    """What 'unit-cost snapshots' hides: Algorithm 1 on real registers."""
    from repro.core.emulated_conciliator import EmulatedSnapshotConciliator

    trials = _trials(15, scale)
    rows = []
    ratios = []
    ok = True
    for n in (4, 8, 16, 32):
        stats = run_conciliator_trials(
            lambda: EmulatedSnapshotConciliator(n),
            list(range(n)),
            trials=trials,
            master_seed=15_000 + n,
        )
        unit = 2 * snapshot_rounds(n, 0.5)
        ratio = stats.individual_steps.mean / unit
        ratios.append(ratio)
        ok = ok and stats.validity_failures == 0
        rows.append([
            n, unit, round(stats.individual_steps.mean, 1),
            round(ratio, 1), round(stats.agreement_rate, 3),
        ])
    # Shape: the emulation overhead grows with n (Theta(n) per scan), so
    # the ratio must increase monotonically down the sweep, and at n=32
    # the emulation costs more than 10x the unit-cost steps.
    ok = ok and all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    ok = ok and rows[-1][3] > 10
    return ExperimentTable(
        "E15",
        "Unit-cost snapshot assumption, priced: Algorithm 1 on wait-free "
        "register-emulated snapshots pays Theta(n)-factor more steps, and "
        "the gap widens with n (why Algorithm 2's register model matters)",
        ["n", "unit-cost steps", "emulated mean steps", "ratio",
         "agreement"],
        rows,
        notes=f"{trials} trials/row; agreement is unaffected (the emulation "
              "is linearizable), only the price changes",
        shape_holds=ok,
    )


def e16_bounded_max_register(scale: float = 1.0) -> ExperimentTable:
    """Footnote 1 continued: the [7] max register really is O(log k)/op."""
    from repro.memory.bounded_max_register import BoundedMaxRegister
    from repro.runtime.simulator import run_programs

    trials = _trials(20, scale)
    rows = []
    ok = True
    for exponent in (4, 8, 12, 16):
        capacity = 2 ** exponent
        register = BoundedMaxRegister(capacity)
        read_bound = register.read_step_bound()
        write_bound = register.write_step_bound()
        # Measure live: n processes write random values then read.
        n = 8
        measured_max = 0
        correct = True
        for trial in range(trials):
            seeds = SeedTree(16_000 + exponent * 100 + trial)
            fresh = BoundedMaxRegister(capacity)
            values = [
                seeds.child(f"v-{pid}").rng().randrange(capacity)
                for pid in range(n)
            ]

            def program(ctx):
                yield from fresh.write_program(ctx, values[ctx.pid])
                result = yield from fresh.read_program(ctx)
                return result

            schedule = make_schedule("random", n, seeds.child("schedule"))
            result = run_programs([program] * n, schedule, seeds)
            measured_max = max(measured_max, result.max_individual_steps)
            for pid in range(n):
                if not values[pid] <= result.outputs[pid] <= max(values):
                    correct = False
        ok = ok and correct and measured_max <= read_bound + write_bound
        rows.append([
            capacity, exponent, read_bound, write_bound, measured_max,
            correct,
        ])
    # Shape: bounds scale linearly in log k.
    write_bounds = [row[3] for row in rows]
    ok = ok and all(
        write_bounds[i + 1] - write_bounds[i] == 8
        for i in range(len(write_bounds) - 1)
    )
    return ExperimentTable(
        "E16",
        "Footnote 1 / [7]: bounded max register from 1-bit switches costs "
        "ceil(log2 k) reads and 2 ceil(log2 k) writes per operation",
        ["capacity k", "log2 k", "read bound", "write bound",
         "measured max steps", "semantics ok"],
        rows,
        notes=f"{trials} live trials per capacity with 8 concurrent writers",
        shape_holds=ok,
    )


def e17_register_width(scale: float = 1.0) -> ExperimentTable:
    """Footnote 2 and the Section 3 remark: register widths in bits."""
    from repro.analysis.space import (
        sifting_register_bits,
        snapshot_component_bits,
    )

    value_bits = 64  # a 64-bit input domain
    rows = []
    for n in (2**8, 2**16, 2**32):
        plain = snapshot_component_bits(n, 0.5, value_bits)
        indirect = snapshot_component_bits(
            n, 0.5, value_bits, indirection=True
        )
        with_id = sifting_register_bits(n, 0.5, value_bits)
        without_id = sifting_register_bits(
            n, 0.5, value_bits, include_origin=False
        )
        rows.append([
            f"2^{n.bit_length() - 1}", plain, indirect, with_id, without_id,
        ])
    # Shapes: indirection saves exactly the value field; dropping the id
    # leaves only O(log log n) n-dependence in the sifting register.
    ok = all(row[1] - row[2] == value_bits for row in rows)
    sift_widths = [row[4] for row in rows]
    ok = ok and (sift_widths[-1] - sift_widths[0]) <= 4
    return ExperimentTable(
        "E17",
        "Register widths: footnote 2's indirection removes the value field "
        "from snapshot components; Section 3's id-omission leaves sifting "
        "registers O(log log n + log m) bits",
        ["n", "snap component (plain)", "snap (indirection)",
         "sift register (with id)", "sift (no id)"],
        rows,
        notes="exact widths in bits for a 64-bit input domain, eps = 1/2",
        shape_holds=ok,
    )


def e18_adversary_strength(scale: float = 1.0, n: int = 32) -> ExperimentTable:
    """Section 5's 'strength of the adversary', measured.

    A content-aware adversary (which sees whether a process is about to
    read or write) defeats the sifting conciliator's oblivious floor, while
    the snapshot conciliator — whose per-round operation pattern is the
    same for everyone — is structurally immune.  This is the paper's
    content-oblivious requirement as an experiment.
    """
    from repro.runtime.adaptive import (
        PendingKindAdversary,
        RandomAdaptiveAdversary,
        SiftKillerAdversary,
        run_adaptive_programs,
    )

    trials = _trials(60, scale)
    adversaries = {
        "random (oblivious-equivalent)": lambda t: RandomAdaptiveAdversary(t),
        "readers-first (content-aware)": lambda t: PendingKindAdversary(["read"]),
        "sift-killer (content-aware)": lambda t: SiftKillerAdversary(),
    }
    conciliators = {
        "Alg 2 (sifting)": lambda: SiftingConciliator(n),
        "Alg 1 (snapshot)": lambda: SnapshotConciliator(n),
    }
    rates = {}
    rows = []
    for cell_index, (conc_label, make_conciliator) in enumerate(
        conciliators.items()
    ):
        for adv_index, (adv_label, make_adversary) in enumerate(
            adversaries.items()
        ):
            agreed = 0
            for trial in range(trials):
                # Deterministic per-cell seeds (str hash() is salted per
                # interpreter run and must not be used for seeding).
                seeds = SeedTree(
                    18_000 + cell_index * 100_000 + adv_index * 10_000
                    + trial * 7
                )
                conciliator = make_conciliator()
                result = run_adaptive_programs(
                    [conciliator.program] * n,
                    make_adversary(trial),
                    seeds,
                    inputs=list(range(n)),
                )
                agreed += result.agreement
            rate = agreed / trials
            rates[(conc_label, adv_label)] = rate
            rows.append([conc_label, adv_label, round(rate, 3), 0.5])
    ok = (
        rates[("Alg 2 (sifting)", "readers-first (content-aware)")] < 0.5
        and rates[("Alg 2 (sifting)", "random (oblivious-equivalent)")] >= 0.5
        and rates[("Alg 1 (snapshot)", "readers-first (content-aware)")] >= 0.5
    )
    return ExperimentTable(
        "E18",
        f"Section 5 adversary strength (n={n}): a content-aware scheduler "
        "pushes Algorithm 2 below its oblivious floor; Algorithm 1's "
        "uniform operation pattern resists it",
        ["conciliator", "adversary", "agreement", "oblivious floor"],
        rows,
        notes=f"{trials} trials/cell; 'readers-first' schedules pending "
              "reads before writes, which obliviousness forbids",
        shape_holds=ok,
    )


def e19_worst_schedule_search(scale: float = 1.0, n: int = 8) -> ExperimentTable:
    """The floor holds even for *searched-for* oblivious schedules.

    The theorems quantify over all oblivious strategies; a hill-climb over
    explicit schedules (minimizing measured agreement) must therefore fail
    to push below 1 - eps, up to sampling noise.
    """
    from repro.workloads.search import search_worst_schedule

    generations = max(4, int(round(24 * scale)))
    rows = []
    ok = True
    for label, factory, steps in (
        ("Alg 2 (sifting)", lambda: SiftingConciliator(n),
         SiftingConciliator(n).rounds),
        ("Alg 1 (snapshot)", lambda: SnapshotConciliator(n),
         2 * snapshot_rounds(n, 0.5)),
    ):
        result = search_worst_schedule(
            factory,
            list(range(n)),
            steps_per_process=steps,
            generations=generations,
            mutations_per_generation=4,
            trials_per_eval=max(4, int(round(10 * scale))),
            master_seed=19_000,
        )
        # Allow generous sampling slack below the floor; a real break
        # would sit near zero like E18's.
        within = result.agreement_rate >= 0.5 - 0.2
        ok = ok and within
        rows.append([
            label, result.evaluations, round(result.history[0], 3),
            round(result.agreement_rate, 3), 0.5, within,
        ])
    return ExperimentTable(
        "E19",
        f"Adversarial schedule search (n={n}): hill-climbing over oblivious "
        "schedules cannot break the 1-eps floor (the theorems quantify "
        "over every fixed schedule)",
        ["conciliator", "schedules evaluated", "round-robin rate",
         "worst-found rate", "floor", "holds"],
        rows,
        notes=f"{generations} generations of mutation hill-climb; "
              "worst-found rate re-evaluated on fresh seeds",
        shape_holds=ok,
    )


def e20_phase_distribution(scale: float = 1.0, n: int = 16) -> ExperimentTable:
    """The consensus framework's engine: geometric phase counts.

    Section 1.2: "on average, only a constant number of these objects are
    accessed by each process".  Each (conciliator, adopt-commit) phase
    succeeds independently with probability >= 1 - eps, so the number of
    phases is stochastically dominated by Geometric(1 - eps):
    ``P(phases > k) <= eps^k`` and ``E[phases] <= 1/(1-eps)``.
    """
    trials = _trials(150, scale)
    epsilon = 0.5
    phase_counts = []
    for trial in range(trials):
        seeds = SeedTree(20_000 + trial)
        protocol = register_consensus(n, value_domain=range(n))
        schedule = make_schedule("random", n, seeds.child("schedule"))
        from repro.core.consensus import run_consensus

        run_consensus(protocol, list(range(n)), schedule, seeds)
        phase_counts.append(max(protocol.phases_used.values()))
    mean_phases = sum(phase_counts) / trials
    rows = []
    ok = mean_phases <= 1.0 / (1.0 - epsilon) + 0.5
    max_k = max(phase_counts)
    for k in range(1, min(max_k, 5) + 1):
        measured_tail = sum(1 for count in phase_counts if count > k) / trials
        bound = epsilon ** k
        within = measured_tail <= bound + 0.08
        ok = ok and within
        rows.append([k, round(measured_tail, 3), round(bound, 3), within])
    return ExperimentTable(
        "E20",
        f"Consensus framework (n={n}, eps=1/2): phase count dominated by "
        f"Geometric(1/2) — measured mean {mean_phases:.2f} vs bound 2.0",
        ["k", "measured P(phases > k)", "geometric bound eps^k", "within"],
        rows,
        notes=f"{trials} trials; register-model id-consensus",
        shape_holds=ok,
    )


ALL_EXPERIMENTS: Sequence[Callable[..., ExperimentTable]] = (
    e1_snapshot_decay,
    e2_snapshot_conciliator,
    e3_sifting_decay,
    e4_sifting_conciliator,
    e5_cil_embedded,
    e6_snapshot_consensus,
    e7_register_consensus,
    e8_baseline_comparison,
    e9_priority_range_ablation,
    e10_p_schedule_ablation,
    e11_max_register_variant,
    e12_adopt_commit_cost,
    e13_one_round_scaling,
    e14_test_and_set,
    e15_emulated_snapshot_cost,
    e16_bounded_max_register,
    e17_register_width,
    e18_adversary_strength,
    e19_worst_schedule_search,
    e20_phase_distribution,
)


def select_experiments(only: str = "") -> List[Callable[..., ExperimentTable]]:
    """The builders a comma-separated id list names (``"E1,e5"``), in
    paper order; every builder when ``only`` is empty.

    Selecting before anything runs means one table costs one table, not
    twenty.  An unknown id raises :class:`ConfigurationError` rather than
    selecting nothing.
    """
    by_id = {f"E{index}": builder
             for index, builder in enumerate(ALL_EXPERIMENTS, 1)}
    wanted = {token.strip().upper() for token in only.split(",")} - {""}
    unknown = sorted(wanted - set(by_id))
    if unknown:
        raise ConfigurationError(
            f"unknown experiment id(s) {', '.join(unknown)}; "
            f"choose from E1-E{len(by_id)}"
        )
    return [builder for experiment_id, builder in by_id.items()
            if not wanted or experiment_id in wanted]


# Aliases matching the experiment ids.
e1 = e1_snapshot_decay
e2 = e2_snapshot_conciliator
e3 = e3_sifting_decay
e4 = e4_sifting_conciliator
e5 = e5_cil_embedded
e6 = e6_snapshot_consensus
e7 = e7_register_consensus
e8 = e8_baseline_comparison
e9 = e9_priority_range_ablation
e10 = e10_p_schedule_ablation
e11 = e11_max_register_variant
e12 = e12_adopt_commit_cost
e13 = e13_one_round_scaling
e14 = e14_test_and_set
e15 = e15_emulated_snapshot_cost
e16 = e16_bounded_max_register
e17 = e17_register_width
e18 = e18_adversary_strength
e19 = e19_worst_schedule_search
e20 = e20_phase_distribution
