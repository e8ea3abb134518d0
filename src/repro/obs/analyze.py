"""Trace analytics: persona lineage, disagreement root-cause, attribution.

PR 4's :class:`~repro.obs.events.TraceEventRecord` streams record *what
happened*; this module answers *why*.  Three analyses, all pure functions
of an event list (so they are deterministic, replayable on saved JSONL
traces, and byte-identical regardless of how the trace was produced):

- :func:`build_lineages` reconstructs, per process, the chain of persona
  adoptions — which round each adoption happened in, whether the process
  kept its own persona or adopted another, and (best effort) which write
  by which process the adoption read;
- :func:`explain_disagreement` folds the lineages into a versioned
  :class:`DisagreementReport` naming the divergence round and the
  surviving lineages of a disagreeing run;
- :func:`attribute_steps` folds register/snapshot operation events into
  per-round step counts and compares them against the closed-form
  predictions of :mod:`repro.analysis.theory`, producing a versioned
  :class:`AttributionReport` with observed-vs-predicted deltas.

Both report types serialize with ``"v": ANALYSIS_SCHEMA_VERSION`` and
their readers reject foreign versions loudly, the same contract every
other JSON artifact in this repository makes.

The analyses read the whole trace of a run, which is what
:class:`~repro.obs.tracing.TraceRecorder` always records.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.obs.events import TraceEventRecord

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AdoptionStep",
    "AttributionReport",
    "DisagreementReport",
    "PersonaLineage",
    "SurvivingLineage",
    "attribute_steps",
    "build_lineages",
    "explain_disagreement",
]

#: Version stamped on every serialized analysis report; bump on change.
ANALYSIS_SCHEMA_VERSION = 1

_DISAGREEMENT_KIND = "repro-disagreement-report"
_ATTRIBUTION_KIND = "repro-attribution-report"

#: Round-indexed shared objects: ``<name>.r[i]`` (sifting round registers),
#: ``<name>.A[i]`` (snapshot round arrays), ``<name>.M[i]`` (max registers).
#: Other objects (CIL proposal, combine stage, adopt-commit flags) are not
#: round-indexed and land in the unattributed bucket.
_ROUND_OBJECT = re.compile(r"\.(?:r|A|M)\[(\d+)\]")

_READ_KINDS = frozenset({"register-read", "snapshot-scan", "max-read"})
_WRITE_KINDS = frozenset({"register-write", "snapshot-update", "max-write"})
_OP_KINDS = _READ_KINDS | _WRITE_KINDS | {"step"}


def _round_index(obj_name: str) -> Optional[int]:
    """The round a shared object belongs to, or ``None`` if not round-indexed."""
    match = _ROUND_OBJECT.search(obj_name)
    return int(match.group(1)) if match else None


def _payload_mentions(value: Any, needle: str) -> bool:
    """True when ``needle`` (a persona repr) appears anywhere in ``value``."""
    if value is None:
        return False
    if isinstance(value, str):
        return needle in value
    return needle in json.dumps(value, sort_keys=True, default=repr)


# ----- persona lineage -------------------------------------------------------


@dataclass(frozen=True)
class AdoptionStep:
    """One link in a process's persona chain.

    ``round_number`` follows the annotation convention of
    :meth:`~repro.obs.tracing.TraceRecorder.annotate_conciliator`: round 0
    is the initial persona, round ``k >= 1`` the persona held after
    protocol round ``k - 1`` — i.e. acquired through operations on the
    round-``k-1`` shared object.  ``writer_pid``/``write_step`` name the
    write the adoption read, reconstructed best-effort by matching the
    persona against operation payloads; they stay ``None`` when the
    process kept its own persona or the trace lacks the evidence.
    """

    round_number: int
    persona: str
    value: Any = None
    origin: Optional[int] = None
    kept_own: bool = True
    read_obj: Optional[str] = None
    read_step: Optional[int] = None
    writer_pid: Optional[int] = None
    write_step: Optional[int] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "round": self.round_number,
            "persona": self.persona,
            "value": self.value,
            "origin": self.origin,
            "kept_own": self.kept_own,
            "read_obj": self.read_obj,
            "read_step": self.read_step,
            "writer_pid": self.writer_pid,
            "write_step": self.write_step,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "AdoptionStep":
        return cls(
            round_number=int(data["round"]),
            persona=str(data["persona"]),
            value=data.get("value"),
            origin=data.get("origin"),
            kept_own=bool(data.get("kept_own", True)),
            read_obj=data.get("read_obj"),
            read_step=data.get("read_step"),
            writer_pid=data.get("writer_pid"),
            write_step=data.get("write_step"),
        )


@dataclass(frozen=True)
class PersonaLineage:
    """One process's full persona-adoption chain, in round order."""

    pid: int
    steps: Tuple[AdoptionStep, ...]

    @property
    def final(self) -> Optional[AdoptionStep]:
        return self.steps[-1] if self.steps else None

    def held_at(self, round_number: int) -> Optional[AdoptionStep]:
        """The latest adoption at or before ``round_number``."""
        held = None
        for step in self.steps:
            if step.round_number > round_number:
                break
            held = step
        return held

    def to_json(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "steps": [step.to_json() for step in self.steps],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "PersonaLineage":
        return cls(
            pid=int(data["pid"]),
            steps=tuple(
                AdoptionStep.from_json(step) for step in data.get("steps", ())
            ),
        )


def _find_provenance(
    events: Sequence[TraceEventRecord],
    pid: int,
    register_round: int,
    persona: str,
) -> Tuple[Optional[str], Optional[int], Optional[int], Optional[int]]:
    """Best-effort (read_obj, read_step, writer_pid, write_step) for an
    adoption: the read by ``pid`` on a round-``register_round`` object whose
    result mentions ``persona``, and the latest earlier write of it there."""
    read_obj: Optional[str] = None
    read_step: Optional[int] = None
    for event in events:
        if event.kind not in _READ_KINDS or event.pid != pid:
            continue
        obj = event.payload.get("obj", "")
        if _round_index(obj) != register_round:
            continue
        if _payload_mentions(event.payload.get("result"), persona):
            read_obj, read_step = obj, event.step
            break
    if read_obj is None:
        return None, None, None, None
    writer_pid: Optional[int] = None
    write_step: Optional[int] = None
    for event in events:
        if event.kind not in _WRITE_KINDS:
            continue
        if event.payload.get("obj") != read_obj:
            continue
        if read_step is not None and event.step is not None \
                and event.step >= read_step:
            continue
        if _payload_mentions(event.payload.get("value"), persona):
            writer_pid, write_step = event.pid, event.step
    return read_obj, read_step, writer_pid, write_step


def build_lineages(
    events: Sequence[TraceEventRecord],
) -> Dict[int, PersonaLineage]:
    """Reconstruct every process's persona chain from an annotated trace.

    Requires ``persona-adoption`` events (see
    :meth:`~repro.obs.tracing.TraceRecorder.annotate_conciliator`); raises
    :class:`~repro.errors.ConfigurationError` when the trace has none,
    because an empty lineage map would be indistinguishable from "nobody
    ever adopted anything".
    """
    adoptions: Dict[int, Dict[int, TraceEventRecord]] = {}
    for event in events:
        if event.kind != "persona-adoption" or event.pid is None:
            continue
        round_number = int(event.payload.get("round", 0))
        adoptions.setdefault(int(event.pid), {})[round_number] = event
    if not adoptions:
        raise ConfigurationError(
            "trace carries no persona-adoption events; annotate the trace "
            "with TraceRecorder.annotate_conciliator before building lineages"
        )
    lineages: Dict[int, PersonaLineage] = {}
    for pid in sorted(adoptions):
        steps: List[AdoptionStep] = []
        previous: Optional[str] = None
        for round_number in sorted(adoptions[pid]):
            payload = adoptions[pid][round_number].payload
            persona = str(payload.get("persona", ""))
            kept_own = previous is None or persona == previous
            read_obj = read_step = writer_pid = write_step = None
            if round_number >= 1 and not kept_own:
                read_obj, read_step, writer_pid, write_step = _find_provenance(
                    events, pid, round_number - 1, persona
                )
            steps.append(AdoptionStep(
                round_number=round_number,
                persona=persona,
                value=payload.get("value"),
                origin=payload.get("origin"),
                kept_own=kept_own,
                read_obj=read_obj,
                read_step=read_step,
                writer_pid=writer_pid,
                write_step=write_step,
            ))
            previous = persona
        lineages[pid] = PersonaLineage(pid=pid, steps=tuple(steps))
    return lineages


# ----- disagreement root-cause -----------------------------------------------


@dataclass(frozen=True)
class SurvivingLineage:
    """One distinct final persona and the processes that ended holding it."""

    persona: str
    value: Any
    origin: Optional[int]
    holders: Tuple[int, ...]

    def to_json(self) -> Dict[str, Any]:
        return {
            "persona": self.persona,
            "value": self.value,
            "origin": self.origin,
            "holders": list(self.holders),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SurvivingLineage":
        return cls(
            persona=str(data["persona"]),
            value=data.get("value"),
            origin=data.get("origin"),
            holders=tuple(int(pid) for pid in data.get("holders", ())),
        )


@dataclass(frozen=True)
class DisagreementReport:
    """Why a conciliator run ended with more than one surviving persona.

    ``divergence_round`` is the smallest recorded round ``d`` such that
    the processes never again all hold one persona from round ``d``
    onward — equivalently, one past the last unanimous round, or 0 when
    the initial personae already never converged.  ``None`` when the run
    did not diverge.
    """

    diverged: bool
    divergence_round: Optional[int]
    rounds_recorded: int
    survivors: Tuple[SurvivingLineage, ...]
    lineages: Tuple[PersonaLineage, ...]
    note: str = ""

    @property
    def final_values(self) -> Tuple[Any, ...]:
        """The distinct surviving values, in survivor order."""
        return tuple(survivor.value for survivor in self.survivors)

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": ANALYSIS_SCHEMA_VERSION,
            "kind": _DISAGREEMENT_KIND,
            "diverged": self.diverged,
            "divergence_round": self.divergence_round,
            "rounds_recorded": self.rounds_recorded,
            "survivors": [survivor.to_json() for survivor in self.survivors],
            "lineages": [lineage.to_json() for lineage in self.lineages],
            "note": self.note,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "DisagreementReport":
        expect_versioned(
            data, "analysis report", ANALYSIS_SCHEMA_VERSION, key="v",
            kind=_DISAGREEMENT_KIND,
        )
        return cls(
            diverged=bool(data["diverged"]),
            divergence_round=data.get("divergence_round"),
            rounds_recorded=int(data.get("rounds_recorded", 0)),
            survivors=tuple(
                SurvivingLineage.from_json(entry)
                for entry in data.get("survivors", ())
            ),
            lineages=tuple(
                PersonaLineage.from_json(entry)
                for entry in data.get("lineages", ())
            ),
            note=str(data.get("note", "")),
        )

    def render(self) -> str:
        """Human-readable summary for terminal triage."""
        if not self.diverged:
            lines = [
                "no disagreement: every process ended holding the same "
                f"persona (over {self.rounds_recorded} recorded round(s))"
            ]
        else:
            lines = [
                f"DISAGREEMENT: {len(self.survivors)} personae survived "
                f"{self.rounds_recorded} recorded round(s); "
                f"divergence round: {self.divergence_round}",
            ]
            for survivor in self.survivors:
                holders = ",".join(f"p{pid}" for pid in survivor.holders)
                lines.append(
                    f"  {survivor.persona} (value={survivor.value!r}) "
                    f"held by {holders}"
                )
            for lineage in self.lineages:
                hops = []
                for step in lineage.steps:
                    if step.kept_own:
                        continue
                    src = (f"p{step.writer_pid}@{step.write_step}"
                           if step.writer_pid is not None else "?")
                    hops.append(
                        f"r{step.round_number}<-{src}:{step.persona}"
                    )
                chain = "; ".join(hops) if hops else "kept its own persona"
                lines.append(f"  p{lineage.pid}: {chain}")
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)


def explain_disagreement(
    events: Sequence[TraceEventRecord], *, note: str = ""
) -> DisagreementReport:
    """Build a :class:`DisagreementReport` from an annotated trace.

    Always returns a report — ``diverged`` is False for agreeing runs —
    so callers can record the analysis unconditionally; raises only when
    the trace carries no adoption evidence at all (see
    :func:`build_lineages`).
    """
    lineages = build_lineages(events)
    max_round = max(
        (step.round_number for lineage in lineages.values()
         for step in lineage.steps),
        default=0,
    )

    def holders_at(round_number: int) -> Dict[str, AdoptionStep]:
        held: Dict[str, AdoptionStep] = {}
        for lineage in lineages.values():
            step = lineage.held_at(round_number)
            if step is not None:
                held.setdefault(step.persona, step)
        return held

    final = holders_at(max_round)
    diverged = len(final) > 1
    divergence_round: Optional[int] = None
    if diverged:
        last_unanimous = -1
        for round_number in range(max_round + 1):
            if len(holders_at(round_number)) == 1:
                last_unanimous = round_number
        divergence_round = last_unanimous + 1

    survivors = []
    for persona in sorted(final):
        step = final[persona]
        holders = tuple(sorted(
            lineage.pid for lineage in lineages.values()
            if (held := lineage.held_at(max_round)) is not None
            and held.persona == persona
        ))
        survivors.append(SurvivingLineage(
            persona=persona, value=step.value, origin=step.origin,
            holders=holders,
        ))
    return DisagreementReport(
        diverged=diverged,
        divergence_round=divergence_round,
        rounds_recorded=max_round + 1,
        survivors=tuple(survivors),
        lineages=tuple(lineages[pid] for pid in sorted(lineages)),
        note=note,
    )


# ----- step attribution vs. theory -------------------------------------------


@dataclass(frozen=True)
class AttributionReport:
    """Observed per-round step counts against the paper's predictions.

    ``predicted`` is the closed-form dict from
    :func:`repro.analysis.theory.predicted_attribution`; its ``relation``
    field defines the tolerance this report documents:

    - ``"exact"`` (Algorithms 1-2): on a run where processes completed,
      the observed round count must *equal* the predicted one and every
      completed process's attributed steps must equal the predicted
      individual steps — tolerance zero;
    - ``"upper-bound"`` (Algorithm 3): the observed round count must not
      exceed the predicted inner-round count and no completed process may
      exceed the predicted individual step bound.
    """

    predicted: Dict[str, Any]
    observed_rounds: int
    per_round_ops: Dict[int, int]
    per_pid_attributed: Dict[int, int]
    per_pid_total: Dict[int, int]
    unattributed_ops: int
    completed_pids: Tuple[int, ...]
    within_tolerance: bool
    note: str = ""

    @property
    def round_delta(self) -> int:
        """Observed minus predicted rounds (0 on an exact match)."""
        return self.observed_rounds - int(self.predicted["rounds"])

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": ANALYSIS_SCHEMA_VERSION,
            "kind": _ATTRIBUTION_KIND,
            "predicted": dict(self.predicted),
            "observed_rounds": self.observed_rounds,
            "round_delta": self.round_delta,
            "per_round_ops": {
                str(round_number): count
                for round_number, count in sorted(self.per_round_ops.items())
            },
            "per_pid_attributed": {
                str(pid): count
                for pid, count in sorted(self.per_pid_attributed.items())
            },
            "per_pid_total": {
                str(pid): count
                for pid, count in sorted(self.per_pid_total.items())
            },
            "unattributed_ops": self.unattributed_ops,
            "completed_pids": list(self.completed_pids),
            "within_tolerance": self.within_tolerance,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "AttributionReport":
        expect_versioned(
            data, "analysis report", ANALYSIS_SCHEMA_VERSION, key="v",
            kind=_ATTRIBUTION_KIND,
        )
        return cls(
            predicted=dict(data["predicted"]),
            observed_rounds=int(data["observed_rounds"]),
            per_round_ops={
                int(key): int(value)
                for key, value in data.get("per_round_ops", {}).items()
            },
            per_pid_attributed={
                int(key): int(value)
                for key, value in data.get("per_pid_attributed", {}).items()
            },
            per_pid_total={
                int(key): int(value)
                for key, value in data.get("per_pid_total", {}).items()
            },
            unattributed_ops=int(data.get("unattributed_ops", 0)),
            completed_pids=tuple(
                int(pid) for pid in data.get("completed_pids", ())
            ),
            within_tolerance=bool(data["within_tolerance"]),
            note=str(data.get("note", "")),
        )

    def render(self) -> str:
        """Human-readable observed-vs-predicted summary."""
        predicted = self.predicted
        relation = predicted["relation"]
        verdict = "within tolerance" if self.within_tolerance \
            else "OUT OF TOLERANCE"
        lines = [
            f"step attribution: {predicted['algorithm']} n={predicted['n']} "
            f"eps={predicted['epsilon']} ({relation}) -> {verdict}",
            f"  rounds: observed {self.observed_rounds} vs predicted "
            f"{predicted['rounds']} (delta {self.round_delta:+d})",
            f"  individual steps predicted: {predicted['individual_steps']} "
            f"({predicted['steps_per_round']}/round)",
        ]
        for pid in sorted(self.per_pid_total):
            attributed = self.per_pid_attributed.get(pid, 0)
            total = self.per_pid_total[pid]
            done = "done" if pid in self.completed_pids else "incomplete"
            lines.append(
                f"  p{pid}: {attributed} round-attributed / {total} total "
                f"ops ({done})"
            )
        if self.unattributed_ops:
            lines.append(
                f"  unattributed ops (proposal/combine/non-round objects): "
                f"{self.unattributed_ops}"
            )
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)


def attribute_steps(
    events: Sequence[TraceEventRecord], predicted: Dict[str, Any]
) -> AttributionReport:
    """Fold operation events into per-round counts and grade them.

    ``predicted`` comes from
    :func:`repro.analysis.theory.predicted_attribution`.  Attribution is
    purely structural: an operation belongs to round ``i`` when its object
    name carries a round index (``.r[i]``/``.A[i]``/``.M[i]``); anything
    else — CIL proposal reads, combine-stage traffic, adopt-commit flags —
    is counted but unattributed.
    """
    for key in ("algorithm", "n", "rounds", "individual_steps", "relation"):
        if key not in predicted:
            raise ConfigurationError(
                f"prediction dict is missing {key!r}; build it with "
                "repro.analysis.theory.predicted_attribution"
            )
    per_round_ops: Dict[int, int] = {}
    per_pid_attributed: Dict[int, int] = {}
    per_pid_total: Dict[int, int] = {}
    unattributed = 0
    completed: List[int] = []
    for event in events:
        if event.kind == "finish" and event.pid is not None:
            completed.append(int(event.pid))
            continue
        if event.kind not in _OP_KINDS or event.pid is None:
            continue
        pid = int(event.pid)
        per_pid_total[pid] = per_pid_total.get(pid, 0) + 1
        round_number = _round_index(event.payload.get("obj", ""))
        if round_number is None:
            unattributed += 1
            continue
        per_round_ops[round_number] = per_round_ops.get(round_number, 0) + 1
        per_pid_attributed[pid] = per_pid_attributed.get(pid, 0) + 1

    observed_rounds = max(per_round_ops, default=-1) + 1
    completed_pids = tuple(sorted(set(completed)))
    relation = predicted["relation"]
    note = ""
    if not completed_pids:
        within = observed_rounds <= int(predicted["rounds"])
        note = ("no process completed; only the round-count bound was "
                "checked")
    elif relation == "exact":
        within = observed_rounds == int(predicted["rounds"]) and all(
            per_pid_attributed.get(pid, 0) == int(predicted["individual_steps"])
            for pid in completed_pids
        )
    else:
        within = observed_rounds <= int(predicted["rounds"]) and all(
            per_pid_total.get(pid, 0) <= int(predicted["individual_steps"])
            for pid in completed_pids
        )
    return AttributionReport(
        predicted=dict(predicted),
        observed_rounds=observed_rounds,
        per_round_ops=per_round_ops,
        per_pid_attributed=per_pid_attributed,
        per_pid_total=per_pid_total,
        unattributed_ops=unattributed,
        completed_pids=completed_pids,
        within_tolerance=within,
        note=note,
    )
