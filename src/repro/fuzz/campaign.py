"""Fuzz campaigns: many scenarios, budgets, shrinking, and the corpus.

A campaign is a deterministic sweep: trial ``i`` runs the scenario
``generate_scenario(master_seed, i, config)``, so the scenario sequence is
a pure function of ``(master_seed, config)`` regardless of worker count,
chunking, or how far a time budget lets the sweep get.  Trials fan out
through the parallel engine (:func:`~repro.runtime.parallel.run_indexed_trials`),
inherit its crash-safe checkpoint/resume journal for fixed-size sweeps,
and return plain-JSON outcomes so results cross process boundaries.

Violations are post-processed **serially, in trial order** by the
coordinator: each is shrunk (deterministically) to a minimal reproducer and
saved into the corpus under a content-addressed filename — which is why the
same seed and budget always produce byte-identical corpus files.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.errors import CheckpointError, ConfigurationError
from repro.fuzz.corpus import CorpusCase, save_case
from repro.fuzz.scenario import (
    FuzzConfig,
    Scenario,
    ViolationRecord,
    generate_scenario,
    run_scenario,
)
from repro.fuzz.shrink import shrink_scenario
from repro.obs.metrics import MetricsRegistry, get_default_registry
from repro.runtime.budget import Deadline
from repro.runtime.parallel import resolve_workers, run_indexed_trials

__all__ = ["CampaignReport", "Finding", "run_fuzz_campaign"]

#: Per-trial wall-clock safety valve (seconds) if the caller sets none.
DEFAULT_TRIAL_WALL_CLOCK = 30.0


@dataclass(frozen=True)
class Finding:
    """One violating (or degraded) trial, after shrinking."""

    trial: int
    status: str
    oracles: tuple
    scenario: Scenario
    shrunk: Scenario
    corpus_file: Optional[str]
    #: Path of the ``.explain.json`` written for this finding, when the
    #: campaign ran with ``explain_dir=``.
    explanation_file: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "trial": self.trial,
            "status": self.status,
            "oracles": list(self.oracles),
            "scenario": self.scenario.to_json(),
            "shrunk": self.shrunk.to_json(),
            "corpus_file": self.corpus_file,
            "explanation_file": self.explanation_file,
        }


@dataclass
class CampaignReport:
    """Everything a campaign did, JSON-serializable for the CLI."""

    master_seed: int
    config: FuzzConfig
    trials: int
    statuses: Dict[str, int] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    corpus_files: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    stopped_by: str = "trials"
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when no hard oracle violation was found."""
        return not any(f.status == "violation" for f in self.findings)

    def to_json(self) -> Dict[str, Any]:
        return {
            "master_seed": self.master_seed,
            "config": self.config.to_json(),
            "trials": self.trials,
            "statuses": dict(sorted(self.statuses.items())),
            "findings": [finding.to_json() for finding in self.findings],
            "corpus_files": list(self.corpus_files),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "stopped_by": self.stopped_by,
            "ok": self.ok,
            "metrics": self.metrics,
        }


def campaign_run_key(
    master_seed: int,
    trials: int,
    config: FuzzConfig,
    *,
    collect_metrics: bool = False,
) -> str:
    """Checkpoint journal key: the campaign's full deterministic identity.

    Metrics collection changes what each journaled outcome carries, so a
    metrics-enabled campaign gets a distinct key rather than silently
    resuming a journal whose outcomes have no snapshots (and vice versa).
    The flag is only written when set, so pre-existing journals keep
    matching their original key.
    """
    identity: Dict[str, Any] = {
        "kind": "repro-fuzz-campaign",
        "master_seed": master_seed,
        "trials": trials,
        "config": config.to_json(),
    }
    if collect_metrics:
        identity["metrics"] = True
    return json.dumps(identity, sort_keys=True, separators=(",", ":"))


def _run_trial(
    master_seed: int,
    index: int,
    config: FuzzConfig,
    wall_clock: Optional[float],
    collect_metrics: bool = False,
) -> Dict[str, Any]:
    """Worker body: generate, run, classify one trial; returns plain JSON."""
    scenario = generate_scenario(master_seed, index, config)
    outcome = run_scenario(
        scenario,
        wall_clock_seconds=wall_clock,
        metrics=MetricsRegistry() if collect_metrics else None,
    )
    return outcome.to_json()


def run_fuzz_campaign(
    master_seed: int,
    config: Optional[FuzzConfig] = None,
    *,
    trials: Optional[int] = None,
    time_budget: Optional[float] = None,
    corpus_dir: Optional[Path] = None,
    shrink: bool = True,
    include_degraded_in_corpus: bool = False,
    corpus_per_bug: int = 3,
    trial_wall_clock: Optional[float] = DEFAULT_TRIAL_WALL_CLOCK,
    shrink_max_reproductions: int = 250,
    shrink_deadline: Optional[float] = 60.0,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    collect_metrics: Optional[bool] = None,
    explain_dir: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run one fuzz campaign.

    Exactly one sizing mode applies: ``trials`` fixes the sweep length
    (checkpoint/resume supported), or ``time_budget`` keeps launching
    trial waves until the wall-clock budget runs out (checkpointing is
    rejected there — a journal keyed on an elastic trial count could not
    resume safely).  In both modes trial ``i`` always runs the same
    scenario, so a time-budgeted campaign explores a prefix of the fixed
    sequence.

    ``collect_metrics`` attaches a fresh metrics registry to every trial
    and folds the per-trial snapshots — in trial order, so the aggregate
    is bit-identical across worker counts — into ``report.metrics``; when
    left ``None`` it follows the session default installed by
    :func:`repro.obs.metrics.collecting` (which also receives a copy of
    the aggregate).

    ``explain_dir`` writes a ``<case-stem>.explain.json`` explanation (see
    :mod:`repro.fuzz.explain`) next to each corpus case the campaign
    saves; it requires ``corpus_dir``.  Explanations are produced by the
    serial coordinator pass over deterministic findings, so — like the
    corpus itself — they are byte-identical across worker counts.
    """
    config = config or FuzzConfig()
    config.resolved_stacks()  # fail fast on unknown stack names
    if explain_dir is not None and corpus_dir is None:
        raise ConfigurationError(
            "explain_dir= requires corpus_dir=: explanations are keyed to "
            "saved corpus cases"
        )
    if (trials is None) == (time_budget is None):
        raise ConfigurationError(
            "pass exactly one of trials= or time_budget="
        )
    if trials is not None and trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if checkpoint_path is not None and trials is None:
        raise ConfigurationError(
            "checkpointing needs a fixed trials= count; a time-budget "
            "campaign has no stable trial range to resume"
        )
    # Same ambiguity guard as the analysis sweeps: an existing journal is
    # only consumed when the caller explicitly asked to resume.
    if resume and checkpoint_path is None:
        raise ConfigurationError(
            "resume=True requires checkpoint_path to name the journal"
        )
    if (checkpoint_path is not None and os.path.exists(checkpoint_path)
            and not resume):
        raise CheckpointError(
            f"checkpoint journal {checkpoint_path!r} already exists; pass "
            "resume=True (--resume) to continue it, or remove the file to "
            "start over"
        )
    emit = log or (lambda message: None)
    started = time.monotonic()
    if collect_metrics is None:
        collect_metrics = get_default_registry() is not None

    def task(index: int) -> Dict[str, Any]:
        return _run_trial(
            master_seed, index, config, trial_wall_clock, collect_metrics
        )

    outcomes: List[Dict[str, Any]] = []
    stopped_by = "trials"
    if trials is not None:
        outcomes = run_indexed_trials(
            task,
            trials,
            workers=workers,
            chunk_size=chunk_size,
            checkpoint_path=checkpoint_path,
            run_key=campaign_run_key(
                master_seed, trials, config, collect_metrics=collect_metrics
            ),
        )
    else:
        deadline = Deadline(time_budget)
        wave = max(8, 4 * resolve_workers(workers))
        base = 0
        while not deadline.expired():
            wave_outcomes = run_indexed_trials(
                lambda i: task(base + i),
                wave,
                workers=workers,
                chunk_size=chunk_size,
            )
            outcomes.extend(wave_outcomes)
            base += wave
            emit(f"time budget: {len(outcomes)} trials, "
                 f"{deadline.remaining():.1f}s remaining")
        stopped_by = "time-budget"

    report = CampaignReport(
        master_seed=master_seed,
        config=config,
        trials=len(outcomes),
        stopped_by=stopped_by,
    )
    if collect_metrics:
        # Fold per-trial snapshots in trial order (never completion order),
        # so the campaign aggregate is bit-identical across worker counts.
        aggregate = MetricsRegistry()
        for outcome_json in outcomes:
            snapshot = outcome_json.get("metrics")
            if snapshot is not None:
                aggregate.merge_snapshot(snapshot)
        report.metrics = aggregate.to_json()
        session_registry = get_default_registry()
        if session_registry is not None:
            session_registry.merge_snapshot(report.metrics)
    seen_corpus: set = set()
    # Cap corpus files per distinct bug — keyed on (stack, oracle set) — so
    # one hot bug found in many trials does not flood the corpus with
    # near-identical reproducers.  Every finding is still reported.
    saved_per_bug: Dict[Any, int] = {}
    for index, outcome_json in enumerate(outcomes):
        status = outcome_json["status"]
        report.statuses[status] = report.statuses.get(status, 0) + 1
        wants_corpus = status == "violation" or (
            status == "degraded" and include_degraded_in_corpus
        )
        if not wants_corpus:
            continue
        records = [
            ViolationRecord.from_json(record)
            for record in outcome_json["violations"] + outcome_json["degradations"]
        ]
        oracles = tuple(sorted({record.oracle for record in records}))
        scenario = Scenario.from_json(outcome_json["scenario"])
        shrunk = scenario
        case_oracles = oracles
        if shrink:
            emit(f"trial {index}: {status} ({', '.join(oracles)}); shrinking...")
            shrink_result = shrink_scenario(
                scenario,
                frozenset(oracles),
                max_reproductions=shrink_max_reproductions,
                deadline_seconds=shrink_deadline,
                wall_clock_seconds=trial_wall_clock,
            )
            shrunk = shrink_result.scenario
            # The corpus records what the *minimized* reproducer fires —
            # shrinking only guarantees some target oracle survives, so the
            # original's full oracle set may be an overstatement.
            case_oracles = shrink_result.outcome.oracle_names
        corpus_file: Optional[str] = None
        explanation_file: Optional[str] = None
        bug_key = (scenario.stack, oracles)
        if corpus_dir is not None and saved_per_bug.get(bug_key, 0) < corpus_per_bug:
            saved_per_bug[bug_key] = saved_per_bug.get(bug_key, 0) + 1
            case = CorpusCase(
                scenario=shrunk,
                oracles=case_oracles,
                note=(
                    f"found by fuzz campaign master_seed={master_seed} "
                    f"trial={index} stack={scenario.stack}"
                ),
            )
            path = save_case(case, Path(corpus_dir))
            corpus_file = str(path)
            if corpus_file not in seen_corpus:
                seen_corpus.add(corpus_file)
                report.corpus_files.append(corpus_file)
            if explain_dir is not None:
                # Imported lazily: explain pulls in the analysis layer,
                # which campaigns without explanations never need.
                from repro.fuzz.explain import explain_case

                explanation = explain_case(
                    case, wall_clock_seconds=trial_wall_clock
                )
                explain_path = Path(explain_dir) / (
                    path.stem + ".explain.json"
                )
                explanation.write(explain_path)
                explanation_file = str(explain_path)
                emit(f"trial {index}: explanation -> {explain_path}")
        report.findings.append(Finding(
            trial=index,
            status=status,
            oracles=oracles,
            scenario=scenario,
            shrunk=shrunk,
            corpus_file=corpus_file,
            explanation_file=explanation_file,
        ))
    report.elapsed_seconds = time.monotonic() - started
    return report
