"""Append-only trend ledgers and the one trend table they share.

A single bench report answers "how fast is this commit?"; the gate
(:func:`~repro.obs.bench.compare_bench`) answers "did this PR regress?".
Neither answers "what has steps/sec done over the last ten PRs?" — that
needs history.  The bench ledger (``benchmarks/BENCH_history.jsonl``)
keeps it as JSONL: one line per bench run, carrying the git SHA, the
creation time, and each case's steps/sec.  The SLO ledger
(:mod:`repro.service.slo`) keeps one line per loadtest the same way.

Both are a :class:`TrendLedger`: a kind-stamped, versioned JSONL file
read with the torn-tail contract of :func:`repro.jsonio.iter_jsonl`, and
summarized per series into :class:`Trend` rows.  Timing numbers are
host-dependent; the summary compares entries from whatever hosts produced
them, so read cross-host deltas as context, not verdicts (the ``env``
fingerprint in the full bench report is the tie-breaker).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned, iter_jsonl

__all__ = [
    "BENCH_LEDGER",
    "TREND_SCHEMA_VERSION",
    "Trend",
    "TrendLedger",
    "history_entry",
]

#: Version stamped on every bench ledger line; bump on incompatible change.
TREND_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Trend:
    """One series' trajectory across the loaded ledger entries."""

    name: str
    points: int
    first: float
    last: float
    #: Fractional change from the newest entry's predecessor; ``None``
    #: when the series appears in fewer than two entries or the older
    #: value is zero (fractions of zero are meaningless, not infinite).
    latest_change: Optional[float]
    #: Fractional change across the whole window (first -> last).
    overall_change: Optional[float]


def _fraction(old: float, new: float) -> Optional[float]:
    return (new - old) / old if old > 0 else None


@dataclass(frozen=True)
class TrendLedger:
    """What fixes one ledger's format: its kind, its series, its table.

    ``series(entry)`` maps series names to values.  ``names`` fixes which
    series are summarized, in that order; ``None`` means every name seen,
    sorted.  ``column``, ``width`` and ``digits`` shape the rendered
    table, and ``command`` is the CLI that starts the ledger.
    """

    label: str
    kind: str
    version: int
    series: Callable[[Dict[str, Any]], Mapping[str, Any]]
    names: Optional[Tuple[str, ...]]
    column: str
    width: int
    digits: int
    command: str

    def load(self, path: Union[str, Path]) -> List[Dict[str, Any]]:
        """The ledger's entries in append order; a missing file is empty."""
        if not Path(path).exists():
            return []
        what = f"{self.label} history"
        return list(iter_jsonl(path, what, lambda data: expect_versioned(
            data, f"{what} entry", self.version, key="v", kind=self.kind,
        )))

    def summarize(
        self, entries: Sequence[Dict[str, Any]], *, last: Optional[int] = None
    ) -> List[Trend]:
        """Per-series first/last/delta summary over the (windowed) ledger.

        ``last`` restricts the window to the newest N entries.  Series are
        summarized independently: an entry lacking one is skipped for it.
        """
        rows = [self.series(entry) for entry in _window(entries, last)]
        names = self.names
        if names is None:
            names = tuple(sorted({name for row in rows for name in row}))
        trends: List[Trend] = []
        for name in names:
            values = [float(row[name]) for row in rows if name in row]
            if not values:
                continue
            two = len(values) >= 2
            trends.append(Trend(
                name=name,
                points=len(values),
                first=values[0],
                last=values[-1],
                latest_change=(
                    _fraction(values[-2], values[-1]) if two else None
                ),
                overall_change=(
                    _fraction(values[0], values[-1]) if two else None
                ),
            ))
        return trends

    def render(
        self, entries: Sequence[Dict[str, Any]], *, last: Optional[int] = None
    ) -> str:
        """Human-readable trend table for terminal output."""
        if not entries:
            return (f"{self.label} history is empty; run `repro "
                    f"{self.command} --history` to start the ledger")
        trends = self.summarize(entries, last=last)
        window = _window(entries, last)
        first_sha = str(window[0].get("git_sha", "unknown"))[:12]
        last_sha = str(window[-1].get("git_sha", "unknown"))[:12]
        width, digits = self.width, self.digits
        lines = [
            f"{self.label} trend over {len(window)} entr"
            f"{'y' if len(window) == 1 else 'ies'} "
            f"({first_sha} -> {last_sha})",
            f"{self.column:<{width}} {'first':>12} {'last':>12} "
            f"{'latest':>8} {'overall':>8}  points",
        ]
        for trend in trends:
            latest = (f"{trend.latest_change:+.1%}"
                      if trend.latest_change is not None else "-")
            overall = (f"{trend.overall_change:+.1%}"
                       if trend.overall_change is not None else "-")
            lines.append(
                f"{trend.name:<{width}} {trend.first:>12.{digits}f} "
                f"{trend.last:>12.{digits}f} {latest:>8} {overall:>8}  "
                f"{trend.points}"
            )
        return "\n".join(lines)


def _window(
    entries: Sequence[Dict[str, Any]], last: Optional[int]
) -> List[Dict[str, Any]]:
    if last is None:
        return list(entries)
    if last < 1:
        raise ConfigurationError(f"last must be >= 1, got {last}")
    return list(entries)[-last:]


#: The bench ledger: one series per bench case (steps/sec), sorted by name.
BENCH_LEDGER = TrendLedger(
    label="bench",
    kind="repro-bench-history",
    version=TREND_SCHEMA_VERSION,
    series=lambda entry: entry.get("cases", {}),
    names=None,
    column="case",
    width=24,
    digits=0,
    command="bench",
)


def history_entry(report: Dict[str, Any]) -> Dict[str, Any]:
    """Distill one bench report (see ``run_bench_suite``) to a ledger line."""
    if "cases" not in report or "label" not in report:
        raise ConfigurationError(
            "not a bench report: missing 'cases'/'label'; build one with "
            "run_bench_suite"
        )
    return {
        "v": TREND_SCHEMA_VERSION,
        "kind": BENCH_LEDGER.kind,
        "label": report["label"],
        "quick": bool(report.get("quick", False)),
        "seed": report.get("seed"),
        "git_sha": report.get("git_sha", "unknown"),
        "created_unix": report.get("created_unix"),
        "cases": {
            name: case["steps_per_sec"]
            for name, case in sorted(report["cases"].items())
        },
    }
