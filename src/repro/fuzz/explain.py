"""Run explainability: re-execute a scenario under a full trace and
distill the analytics that answer "why did this happen?".

This module is the glue between the fuzz layer and the PR 5 trace
analytics (:mod:`repro.obs.analyze`): it replays a scenario or corpus
case with an unsampled :class:`~repro.obs.tracing.TraceRecorder`
attached, annotates the conciliator's round bookkeeping into the trace,
and packages the resulting :class:`~repro.obs.analyze.DisagreementReport`
and :class:`~repro.obs.analyze.AttributionReport` (when the stack maps to
a theory prediction) into one versioned :class:`CaseExplanation`.

It lives here — above both ``repro.obs`` and ``repro.analysis`` — because
``repro.analysis`` imports ``repro.obs.metrics`` (the experiments layer
collects metrics), so ``repro.obs.analyze`` must not import
``repro.analysis.theory`` back.  Predictions flow in as plain dicts; this
module is the one place the two layers meet.

Explanations are deterministic: the replay is a pure function of the
scenario, the analyses are pure functions of the trace, and the JSON is
canonical — so explanation files are byte-identical regardless of how
many workers the producing campaign used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.theory import predicted_attribution
from repro.fuzz.corpus import CorpusCase
from repro.fuzz.scenario import Scenario, run_scenario
from repro.fuzz.stacks import get_stack
from repro.jsonio import expect_versioned
from repro.obs.analyze import (
    ANALYSIS_SCHEMA_VERSION,
    AttributionReport,
    DisagreementReport,
    attribute_steps,
    explain_disagreement,
)
from repro.obs.events import (
    TraceEventRecord,
    event_from_json,
    event_to_json,
)
from repro.obs.tracing import TraceRecorder

__all__ = [
    "EXPLAIN_SCHEMA_VERSION",
    "CaseExplanation",
    "explain_case",
    "explain_scenario",
]

#: Version stamped on every explanation file; bump on incompatible change.
EXPLAIN_SCHEMA_VERSION = 1

_EXPLANATION_KIND = "repro-case-explanation"


@dataclass(frozen=True)
class CaseExplanation:
    """Everything the analytics learned from one traced replay."""

    scenario: Scenario
    status: str
    oracles: Tuple[str, ...]
    events: Tuple[TraceEventRecord, ...]
    disagreement: Optional[DisagreementReport]
    attribution: Optional[AttributionReport]
    note: str = ""
    #: The recorder's retention counters (``TraceRecorder.metadata()``):
    #: recorded_total / retained / steps_observed / ring_dropped /
    #: pid_events_dropped.  ``None`` only for explanations written before
    #: the counters existed; fresh replays always carry them, and an
    #: unsampled, uncapped replay has both drop counters at zero — the
    #: "this trace is complete" receipt.
    trace_counters: Optional[Dict[str, int]] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": EXPLAIN_SCHEMA_VERSION,
            "kind": _EXPLANATION_KIND,
            "analysis_version": ANALYSIS_SCHEMA_VERSION,
            "scenario": self.scenario.to_json(),
            "status": self.status,
            "oracles": list(self.oracles),
            "event_count": len(self.events),
            "events": [event_to_json(event) for event in self.events],
            "disagreement": (
                None if self.disagreement is None
                else self.disagreement.to_json()
            ),
            "attribution": (
                None if self.attribution is None
                else self.attribution.to_json()
            ),
            "note": self.note,
            "trace_counters": (
                None if self.trace_counters is None
                else dict(self.trace_counters)
            ),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CaseExplanation":
        expect_versioned(
            data, "case explanation", EXPLAIN_SCHEMA_VERSION, key="v",
            kind=_EXPLANATION_KIND,
        )
        disagreement = data.get("disagreement")
        attribution = data.get("attribution")
        return cls(
            scenario=Scenario.from_json(data["scenario"]),
            status=str(data["status"]),
            oracles=tuple(str(name) for name in data.get("oracles", ())),
            events=tuple(
                event_from_json(event) for event in data.get("events", ())
            ),
            disagreement=(
                None if disagreement is None
                else DisagreementReport.from_json(disagreement)
            ),
            attribution=(
                None if attribution is None
                else AttributionReport.from_json(attribution)
            ),
            note=str(data.get("note", "")),
            trace_counters=(
                None if data.get("trace_counters") is None
                else {
                    str(key): int(value)
                    for key, value in data["trace_counters"].items()
                }
            ),
        )

    def canonical_bytes(self) -> bytes:
        """Byte-stable rendering (sorted keys, 2-space indent, trailing
        newline), matching the corpus-case convention."""
        return (
            json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"
        ).encode("utf-8")

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.canonical_bytes())
        return path

    def render(self) -> str:
        """Human-readable triage summary for terminal output."""
        scenario = self.scenario
        lines = [
            f"explanation: stack={scenario.stack} n={scenario.n} "
            f"workload={scenario.workload} seed={scenario.seed}",
            f"  status: {self.status}"
            + (f"; oracles fired: {', '.join(self.oracles)}"
               if self.oracles else ""),
            f"  trace: {len(self.events)} event(s)"
            + (
                f" (ring_dropped={self.trace_counters['ring_dropped']}, "
                f"pid_events_dropped="
                f"{self.trace_counters['pid_events_dropped']})"
                if self.trace_counters is not None else ""
            ),
        ]
        if self.disagreement is not None:
            lines.append("")
            lines.append(self.disagreement.render())
        if self.attribution is not None:
            lines.append("")
            lines.append(self.attribution.render())
        if self.disagreement is None and self.attribution is None:
            lines.append(
                "  (no persona bookkeeping and no theory prediction for "
                "this stack: timeline-only explanation)"
            )
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)


def explain_scenario(
    scenario: Scenario,
    *,
    wall_clock_seconds: Optional[float] = None,
    note: str = "",
) -> CaseExplanation:
    """Replay ``scenario`` under a full (unsampled) trace and analyze it.

    The replay re-runs the scenario exactly as the fuzzer did — same
    oracles, same classification — with a :class:`TraceRecorder` attached,
    then derives a disagreement report (when the stack's conciliator
    recorded round bookkeeping) and an attribution report (when the stack
    declares a theory prediction in
    :attr:`repro.fuzz.stacks.StackSpec.attribution`).
    """
    recorder = TraceRecorder(capacity=None, sample_every=1,
                             include_values=True)
    outcome = run_scenario(
        scenario, wall_clock_seconds=wall_clock_seconds, trace=recorder,
    )
    events = tuple(recorder.events)

    disagreement: Optional[DisagreementReport] = None
    if any(event.kind == "persona-adoption" for event in events):
        disagreement = explain_disagreement(
            events, note=f"stack={scenario.stack}",
        )

    attribution: Optional[AttributionReport] = None
    mapping = get_stack(scenario.stack).attribution
    if mapping is not None:
        algorithm, epsilon = mapping
        predicted = predicted_attribution(algorithm, scenario.n, epsilon)
        attribution = attribute_steps(events, predicted)

    return CaseExplanation(
        scenario=scenario,
        status=outcome.status,
        oracles=outcome.oracle_names,
        events=events,
        disagreement=disagreement,
        attribution=attribution,
        note=note,
        trace_counters=recorder.metadata(),
    )


def explain_case(
    case: CorpusCase,
    *,
    wall_clock_seconds: Optional[float] = None,
) -> CaseExplanation:
    """Explain one corpus reproducer, noting its expected oracles."""
    expected = ", ".join(case.oracles)
    parts: List[str] = [f"expected oracles: {expected}"]
    if case.note:
        parts.append(case.note)
    return explain_scenario(
        case.scenario,
        wall_clock_seconds=wall_clock_seconds,
        note="; ".join(parts),
    )
