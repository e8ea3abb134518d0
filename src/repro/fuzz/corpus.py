"""The regression corpus: versioned, self-contained JSON reproducers.

Every oracle violation a campaign finds is minimized and serialized into a
corpus directory (``tests/corpus/`` in this repository).  A corpus case
carries the complete scenario plus the oracle names it is expected to fire,
so replaying needs nothing but this package: ``replay_case`` rebuilds the
scenario, runs it, and checks the same oracles still trip.  Case files are
named by the content hash of their canonical bytes, which makes corpus
writes idempotent and lets campaigns deduplicate reproducers across trials
and machines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.fuzz.scenario import Scenario, ScenarioOutcome, run_scenario
from repro.jsonio import expect_versioned, load_json_file, write_json

__all__ = [
    "CORPUS_VERSION",
    "CorpusCase",
    "ReplayReport",
    "case_filename",
    "load_case",
    "load_corpus",
    "replay_case",
    "save_case",
]

CORPUS_VERSION = 1
_CASE_KIND = "repro-fuzz-corpus-case"


@dataclass(frozen=True)
class CorpusCase:
    """One minimized reproducer.

    ``oracles`` is the sorted tuple of oracle names the scenario fired when
    it was captured (hard violations and, for out-of-model cases,
    degradations).  ``note`` is free-form provenance for humans triaging
    the corpus — which campaign seed and trial produced it.
    """

    scenario: Scenario
    oracles: Tuple[str, ...]
    note: str = ""

    def __post_init__(self) -> None:
        if not self.oracles:
            raise ConfigurationError(
                "a corpus case must name at least one expected oracle"
            )
        object.__setattr__(self, "oracles", tuple(sorted(self.oracles)))

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": CORPUS_VERSION,
            "kind": _CASE_KIND,
            "scenario": self.scenario.to_json(),
            "oracles": list(self.oracles),
            "note": self.note,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CorpusCase":
        expect_versioned(
            data, "corpus case", CORPUS_VERSION, key="version", kind=_CASE_KIND
        )
        return cls(
            scenario=Scenario.from_json(data["scenario"]),
            oracles=tuple(str(name) for name in data.get("oracles", ())),
            note=str(data.get("note", "")),
        )

    def identity_bytes(self) -> bytes:
        """What makes two cases "the same bug": scenario + oracles.

        The free-form ``note`` (campaign provenance) is excluded so that
        the same minimized reproducer found by different campaigns
        deduplicates to one corpus file.
        """
        identity = {
            "scenario": self.scenario.to_json(),
            "oracles": list(self.oracles),
        }
        return json.dumps(identity, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")


def case_filename(case: CorpusCase) -> str:
    """Content-addressed filename: cases for the same bug collide on purpose."""
    digest = hashlib.sha256(case.identity_bytes()).hexdigest()[:16]
    return f"case-{digest}.json"


def save_case(case: CorpusCase, corpus_dir: Path) -> Path:
    """Write ``case`` into ``corpus_dir`` (idempotent); returns the path."""
    path = Path(corpus_dir) / case_filename(case)
    if not path.exists():
        write_json(case.to_json(), path)
    return path


def load_case(path: Path) -> CorpusCase:
    """Parse one corpus file (unknown versions are rejected)."""
    return CorpusCase.from_json(load_json_file(path, "corpus file"))


def load_corpus(corpus_dir: Path) -> List[Tuple[Path, CorpusCase]]:
    """All cases in a corpus directory, sorted by filename for determinism."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    return [
        (path, load_case(path))
        for path in sorted(corpus_dir.glob("case-*.json"))
        # --explain writes case-<hash>.explain.json next to each case;
        # those are analyses of cases, not cases.
        if not path.name.endswith(".explain.json")
    ]


@dataclass(frozen=True)
class ReplayReport:
    """The verdict of replaying one corpus case."""

    case: CorpusCase
    outcome: ScenarioOutcome
    reproduced: bool
    #: Expected oracles that did fire on replay.
    matched: Tuple[str, ...]
    #: Expected oracles that did not fire on replay.
    missing: Tuple[str, ...]


def replay_case(
    case: CorpusCase, *, wall_clock_seconds: Optional[float] = None
) -> ReplayReport:
    """Re-run a corpus case and check its expected oracles still fire.

    A case reproduces if at least one expected oracle fires again (hard or
    degraded): shrinking targets "same oracle", not "same message", so the
    oracle name is the stable contract.
    """
    outcome = run_scenario(case.scenario, wall_clock_seconds=wall_clock_seconds)
    fired = set(outcome.oracle_names)
    matched = tuple(sorted(set(case.oracles) & fired))
    missing = tuple(sorted(set(case.oracles) - fired))
    return ReplayReport(
        case=case,
        outcome=outcome,
        reproduced=bool(matched),
        matched=matched,
        missing=missing,
    )
