"""SLO report: one loadtest run reduced to a versioned JSON artifact.

The report is the service layer's analogue of the sweep records in
:mod:`repro.analysis.records`: a self-describing, schema-versioned JSON
document that CI can gate on and the trend ledger can track.  Its
determinism contract is explicit: every field except the ``wall_clock``
section is a pure function of the loadtest's seeded inputs, so
:func:`deterministic_view` (the report minus ``wall_clock``) must be
byte-identical across runs and machines — the committed
``benchmarks/SLO_baseline.json`` is diffed exactly that way in CI.

Latency percentiles are computed here from the full response list with
the nearest-rank rule (not from the decimated
:class:`~repro.obs.metrics.Histogram`), because the committed baseline
should pin exact values; the metrics snapshot rides along for the trend
ledger and for operators who want the full registry.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.jsonio import append_jsonl, expect_versioned, load_json_file
from repro.obs.trend import Trend, TrendLedger
from repro.service.loadgen import LoadtestResult
from repro.service.session import (
    COMPLETED,
    FAILED,
    FAILURE_CODES,
    REJECTED,
    REJECTION_CODES,
)
from repro.service.spans import PHASE_NAMES, span_digest

__all__ = [
    "SLO_SCHEMA_VERSION",
    "SLO_LEDGER",
    "SLO_TREND_METRICS",
    "append_slo_history",
    "build_report",
    "deterministic_view",
    "load_report",
    "load_slo_history",
    "render_report",
    "render_slo_trend",
    "slo_history_entry",
    "summarize_slo_trend",
    "write_report",
]

SLO_SCHEMA_VERSION = 1

_HISTORY_KIND = "repro-slo-history"

#: Fields excluded from the determinism contract (and the CI byte-diff).
_NONDETERMINISTIC_KEYS = ("wall_clock",)


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _latency_attribution(result: LoadtestResult) -> Optional[Dict[str, Any]]:
    """Fold the run's span trees into the ``latency_attribution`` section.

    Phase totals accumulate over *admitted* sessions (completed + failed)
    in response order; shares are fractions of the summed end-to-end
    latency.  Per-percentile rows pick the nearest-rank completed session
    (ties broken by session id, matching the ``latency`` section's
    nearest-rank convention) and show where *that* session's budget went.
    Per-session exactness — phase times summing bit-for-bit to the
    session latency — is the
    :func:`~repro.service.spans.attribute_phases` contract.
    """
    if result.spans is None:
        return None
    by_id = {
        tree.attrs.get("session_id"): tree for tree in result.spans
    }
    admitted = [
        r for r in result.responses if r.status in (COMPLETED, FAILED)
    ]
    totals = {name: 0.0 for name in PHASE_NAMES}
    total_latency = 0.0
    unmatched = 0
    for response in admitted:
        tree = by_id.get(response.session_id)
        if tree is None:
            unmatched += 1
            continue
        phases = tree.attrs.get("phases", {})
        for name in PHASE_NAMES:
            totals[name] += phases.get(name, 0.0)
        total_latency += response.latency

    def share(seconds: float) -> float:
        return seconds / total_latency if total_latency > 0 else 0.0

    completed = sorted(
        (r for r in result.responses if r.status == COMPLETED),
        key=lambda r: (r.latency, r.session_id),
    )
    percentiles: Dict[str, Any] = {}
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        if not completed:
            percentiles[label] = None
            continue
        index = min(len(completed) - 1, int(q * len(completed)))
        pick = completed[index]
        tree = by_id.get(pick.session_id)
        percentiles[label] = {
            "session_id": pick.session_id,
            "latency": pick.latency,
            "attempts": pick.attempts,
            "phases": (
                dict(tree.attrs.get("phases", {})) if tree is not None
                else None
            ),
        }
    snapshot = result.service_snapshot
    return {
        "phases": {
            name: {"seconds": totals[name], "share": share(totals[name])}
            for name in PHASE_NAMES
        },
        "total_latency_seconds": total_latency,
        "sessions_attributed": len(admitted) - unmatched,
        "sessions_unmatched": unmatched,
        "percentiles": percentiles,
        "breaker_timelines": snapshot.get("breaker_timelines", {}),
        "spans": {
            "sessions": len(result.spans),
            "digest": span_digest(result.spans),
        },
    }


def build_report(
    result: LoadtestResult,
    *,
    label: str = "",
    slo_target_latency: float = 1.0,
    chaos_stack: Optional[str] = None,
) -> Dict[str, Any]:
    """Reduce one :class:`~repro.service.loadgen.LoadtestResult` to JSON.

    ``slo_target_latency`` defines attainment: the fraction of *offered*
    sessions that completed within the target — rejected and failed
    sessions count against the SLO, which is the point of measuring it
    under overload.
    """
    if slo_target_latency <= 0:
        raise ConfigurationError(
            f"slo_target_latency must be > 0, got {slo_target_latency}"
        )
    offered = result.sessions
    completed = [r for r in result.responses if r.status == COMPLETED]
    rejected = [r for r in result.responses if r.status == REJECTED]
    failed = [r for r in result.responses if r.status == FAILED]
    latencies = sorted(r.latency for r in completed)
    within = sum(1 for value in latencies if value <= slo_target_latency)
    config = result.config
    report = {
        "v": SLO_SCHEMA_VERSION,
        "label": label,
        "seed": result.seed,
        "profile": result.profile,
        "chaos_stack": chaos_stack,
        "config": {
            "shards": config.shards,
            "workers_per_shard": config.workers_per_shard,
            "queue_capacity": config.queue_capacity,
            "worker_steps_per_sec": config.worker_steps_per_sec,
            "vectorized_speedup": config.vectorized_speedup,
            "attempt_timeout": config.attempt_timeout,
            "max_attempts": config.max_attempts,
            "degrade_watermark": config.degrade_watermark,
        },
        "sessions": {
            "offered": offered,
            # Admitted counts only *observed* admitted outcomes; sessions
            # with no response at all (submit() raised, or a response slot
            # stayed None) land in "missing" instead of being silently
            # presumed admitted, so offered == admitted + rejected +
            # missing always holds.
            "admitted": len(completed) + len(failed),
            "missing": offered - len(result.responses),
            "completed": len(completed),
            "rejected": {
                code: sum(1 for r in rejected if r.code == code)
                for code in REJECTION_CODES
            },
            "failed": {
                code: sum(1 for r in failed if r.code == code)
                for code in FAILURE_CODES
            },
            "degraded": sum(1 for r in completed if r.degraded),
            "unexpected_errors": result.unexpected_errors,
        },
        "latency": {
            "p50": _quantile(latencies, 0.50),
            "p95": _quantile(latencies, 0.95),
            "p99": _quantile(latencies, 0.99),
            "mean": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "max": latencies[-1] if latencies else 0.0,
        },
        "duration_virtual_seconds": result.duration,
        "goodput_per_sec": (
            len(completed) / result.duration if result.duration > 0 else 0.0
        ),
        "shed_rate": len(rejected) / offered if offered else 0.0,
        "slo": {
            "target_latency": slo_target_latency,
            "attainment": within / offered if offered else 0.0,
        },
        "breakers": result.service_snapshot["breakers"],
        "degraded_mode": result.service_snapshot["degraded_mode"],
        "latency_attribution": _latency_attribution(result),
        "metrics": result.metrics.to_json(),
        "wall_clock": {
            "generated_unix": time.time(),
        },
    }
    return report


def deterministic_view(report: Dict[str, Any]) -> Dict[str, Any]:
    """The report minus its wall-clock fields — the byte-diffable part."""
    return {
        key: value
        for key, value in report.items()
        if key not in _NONDETERMINISTIC_KEYS
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a report as canonical JSON (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Read a report back, refusing foreign schema versions."""
    return expect_versioned(
        load_json_file(path, "SLO report"), f"SLO report {str(path)!r}",
        SLO_SCHEMA_VERSION, key="v",
    )


def render_report(report: Dict[str, Any]) -> str:
    """A terminal-friendly summary of one SLO report."""
    sessions = report["sessions"]
    latency = report["latency"]
    lines = [
        f"SLO report{' ' + report['label'] if report['label'] else ''} "
        f"(profile={report['profile']}, seed={report['seed']})",
        f"  sessions   offered={sessions['offered']} "
        f"admitted={sessions['admitted']} "
        f"completed={sessions['completed']} "
        f"degraded={sessions['degraded']} "
        f"missing={sessions['missing']} "
        f"unexpected={sessions['unexpected_errors']}",
        f"  rejected   " + " ".join(
            f"{code}={count}"
            for code, count in sorted(sessions["rejected"].items())
        ),
        f"  failed     " + " ".join(
            f"{code}={count}"
            for code, count in sorted(sessions["failed"].items())
        ),
        f"  latency    p50={latency['p50']:.4f}s p95={latency['p95']:.4f}s "
        f"p99={latency['p99']:.4f}s max={latency['max']:.4f}s",
        f"  goodput    {report['goodput_per_sec']:.1f}/s over "
        f"{report['duration_virtual_seconds']:.2f} virtual seconds",
        f"  shed rate  {report['shed_rate']:.3f}",
        f"  slo        {report['slo']['attainment']:.3f} within "
        f"{report['slo']['target_latency']:.2f}s",
    ]
    for shard, breaker in sorted(report["breakers"].items()):
        lines.append(
            f"  breaker[{shard}] state={breaker['state']} "
            f"opened={breaker['opened']} "
            f"half_opened={breaker['half_opened']} "
            f"closed_again={breaker['closed_again']}"
        )
    degraded = report["degraded_mode"]
    lines.append(
        f"  degraded   entered={degraded['entered']} "
        f"virtual_seconds={degraded['virtual_seconds']:.3f}"
    )
    attribution = report.get("latency_attribution")
    if attribution is not None:
        phases = attribution["phases"]
        lines.append(
            "  budget     " + " ".join(
                f"{name}={phases[name]['share']:.1%}"
                for name in sorted(phases)
                if phases[name]["seconds"] > 0 or name != "unattributed"
            )
        )
        for label in ("p50", "p95", "p99"):
            row = attribution["percentiles"].get(label)
            if row is None or row.get("phases") is None:
                continue
            breakdown = row["phases"]
            lines.append(
                f"  {label} budget "
                f"session={row['session_id']} "
                f"queue={breakdown.get('queue-wait', 0.0):.4f}s "
                f"worker={breakdown.get('worker-call', 0.0):.4f}s "
                f"backoff={breakdown.get('backoff', 0.0):.4f}s "
                f"stall={breakdown.get('stall', 0.0):.4f}s"
            )
        lines.append(
            f"  spans      {attribution['spans']['sessions']} tree(s) "
            f"digest={attribution['spans']['digest'][:19]}..."
        )
    return "\n".join(lines)


def slo_history_entry(report: Dict[str, Any]) -> Dict[str, Any]:
    """Distill one SLO report to a trend-ledger line.

    The same append-only JSONL ledger as the bench history (see
    :class:`repro.obs.trend.TrendLedger`): one compact line per run,
    carrying the handful of numbers worth trending (tail latency, shed
    rate, goodput, attainment) plus enough identity (seed, profile, git
    SHA) to explain a shift.
    """
    from repro.obs.bench import _git_sha

    if "sessions" not in report or "latency" not in report:
        raise ConfigurationError(
            "not an SLO report: missing 'sessions'/'latency'; build one "
            "with build_report"
        )
    return {
        "v": SLO_SCHEMA_VERSION,
        "kind": _HISTORY_KIND,
        "label": report.get("label", ""),
        "seed": report.get("seed"),
        "profile": report.get("profile"),
        "chaos_stack": report.get("chaos_stack"),
        "git_sha": _git_sha(),
        "created_unix": report.get("wall_clock", {}).get("generated_unix"),
        "p50": report["latency"]["p50"],
        "p99": report["latency"]["p99"],
        "shed_rate": report["shed_rate"],
        "goodput_per_sec": report["goodput_per_sec"],
        "attainment": report["slo"]["attainment"],
        "unexpected_errors": report["sessions"]["unexpected_errors"],
    }


def append_slo_history(report: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Append one report's ledger line to ``path``; returns the entry."""
    entry = slo_history_entry(report)
    append_jsonl(path, entry)
    return entry


#: The ledger fields `repro slo trend` tracks, in display order.  Latency
#: and shed rate trend *down*-is-better; goodput and attainment up — the
#: renderer shows raw fractional change and leaves the judgement to the
#: reader (the CI gate is the SLO baseline diff, not this table).
SLO_TREND_METRICS: Tuple[str, ...] = (
    "p50", "p99", "shed_rate", "goodput_per_sec", "attainment",
)

#: The SLO ledger: one series per :data:`SLO_TREND_METRICS` field, in
#: that order; older lines lacking a metric are skipped for it.
SLO_LEDGER = TrendLedger(
    label="SLO",
    kind=_HISTORY_KIND,
    version=SLO_SCHEMA_VERSION,
    series=lambda entry: entry,
    names=SLO_TREND_METRICS,
    column="metric",
    width=18,
    digits=4,
    command="loadtest",
)


def load_slo_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load the SLO ledger; foreign versions and kinds raise."""
    return SLO_LEDGER.load(path)


def summarize_slo_trend(
    entries: Sequence[Dict[str, Any]], *, last: Optional[int] = None
) -> List[Trend]:
    """Per-metric summary, in :data:`SLO_TREND_METRICS` order."""
    return SLO_LEDGER.summarize(entries, last=last)


def render_slo_trend(
    entries: Sequence[Dict[str, Any]], *, last: Optional[int] = None
) -> str:
    """The SLO trend table."""
    return SLO_LEDGER.render(entries, last=last)
