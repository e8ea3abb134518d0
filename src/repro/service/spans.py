"""Versioned session span trees: where a session's deadline budget went.

PR 4-5 gave the *simulator* attribution (trace -> persona lineage ->
theory-graded step counts); this module gives the *service* the same
treatment.  Every session served by
:class:`~repro.service.service.ConsensusService` emits one deterministic
span tree rooted at a ``session`` span::

    session
    ├── admission      (instant: admitted, or rejected with a code)
    ├── breaker        (instant: breaker state consulted at admission)
    ├── stall          (slow client burning budget before attempt 0)
    └── attempt[i]     (one worker attempt)
        ├── queue-wait (waiting for a worker slot)
        ├── worker-call(the dispatched attempt: timeout, remaining, backend)
        └── backoff    (retry delay after a failed attempt)

Spans carry virtual-time ``start``/``end`` from the serving event loop,
so under the virtual-time loadtest every tree is a pure function of the
seeds.  The flat worker-call audit list is a *view* over these trees
(:meth:`SpanRecorder.calls_view`), not a separate recording path.

**The exact-decomposition contract.**  :func:`attribute_phases` folds a
tree's leaf spans into per-phase totals (``stall``, ``queue-wait``,
``worker-call``, ``backoff``) plus an explicit ``unattributed``
remainder, *in a fixed documented order*, such that
:func:`phase_sum` over the result reproduces the session's end-to-end
latency **exactly** (bit-for-bit float equality, not approximately).
The remainder absorbs float rounding from telescoping the interval
differences; because it is computed as ``latency - measured`` and added
back to ``measured`` at similar magnitude, Sterbenz's lemma makes the
round trip exact.  The SLO ``latency_attribution`` section and its CI
byte-diff stand on this invariant.

Serialization follows the repo-wide schema discipline: every tree's JSON
envelope carries ``"v": SPAN_SCHEMA_VERSION`` and foreign versions are
rejected loudly.  :func:`span_digest` hashes the canonical JSONL bytes —
the same bytes :func:`write_spans_jsonl` persists — so a digest recorded
in an SLO report can be re-checked against a spans file with plain
``sha256sum``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned

__all__ = [
    "PHASE_NAMES",
    "SPAN_NAMES",
    "SPAN_SCHEMA_VERSION",
    "Span",
    "SpanRecorder",
    "attribute_phases",
    "phase_sum",
    "read_spans_jsonl",
    "span_digest",
    "tree_from_json",
    "tree_to_json",
    "write_spans_jsonl",
]

#: Version stamped on every span-tree envelope; bump on incompatible change.
SPAN_SCHEMA_VERSION = 1

_TREE_KIND = "repro-session-spans"

#: The closed vocabulary of span names a tree may contain.
SPAN_NAMES = (
    "session",
    "admission",
    "breaker",
    "stall",
    "attempt",
    "queue-wait",
    "worker-call",
    "backoff",
)

#: Leaf span names that burn deadline budget, in the canonical fold
#: order, plus the explicit float-rounding remainder.  The order is part
#: of the exactness contract: :func:`attribute_phases` accumulates
#: ``measured`` in exactly this order and :func:`phase_sum` re-adds in
#: the same order, so the two agree bit-for-bit.
PHASE_NAMES = ("stall", "queue-wait", "worker-call", "backoff",
               "unattributed")


@dataclass
class Span:
    """One node of a session's span tree.

    Attributes:
        name: one of :data:`SPAN_NAMES`.
        start: virtual-time start (the serving loop's clock).
        end: virtual-time end; equals ``start`` for instant spans.
        status: outcome label (``admitted``, ``rejected``, ``completed``,
            ``timeout``, ``deadline``, a breaker state, ...).
        shard: owning shard index, when the span is shard-bound.
        attrs: small JSON-able payload (codes, timeouts, phase totals).
        children: nested spans in causal order.
    """

    name: str
    start: float
    end: float
    status: str = ""
    shard: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def child(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        *,
        status: str = "",
        shard: Optional[int] = None,
        **attrs: Any,
    ) -> "Span":
        """Append and return a child span (``end`` defaults to instant)."""
        span = Span(
            name=name,
            start=start,
            end=start if end is None else end,
            status=status,
            shard=shard,
            attrs=dict(attrs),
        )
        self.children.append(span)
        return span

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (and self) named ``name``, in tree order."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.shard is not None:
            data["shard"] = self.shard
        if self.attrs:
            data["attrs"] = self.attrs
        if self.children:
            data["children"] = [child.to_json() for child in self.children]
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        if not isinstance(data, dict) or "name" not in data:
            raise ConfigurationError(
                f"span must be a JSON object with a 'name', got {data!r}"
            )
        name = str(data["name"])
        if name not in SPAN_NAMES:
            raise ConfigurationError(
                f"unknown span name {name!r}; expected one of "
                f"{', '.join(SPAN_NAMES)}"
            )
        return cls(
            name=name,
            start=float(data["start"]),
            end=float(data["end"]),
            status=str(data.get("status", "")),
            shard=data.get("shard"),
            attrs=dict(data.get("attrs", {})),
            children=[
                cls.from_json(child) for child in data.get("children", ())
            ],
        )


def tree_to_json(root: Span) -> Dict[str, Any]:
    """One session tree as its versioned JSON envelope."""
    if root.name != "session":
        raise ConfigurationError(
            f"a span tree must be rooted at a 'session' span, "
            f"got {root.name!r}"
        )
    return {
        "v": SPAN_SCHEMA_VERSION,
        "kind": _TREE_KIND,
        "session_id": root.attrs.get("session_id"),
        "root": root.to_json(),
    }


def tree_from_json(data: Any) -> Span:
    """Parse one envelope back to its root span, rejecting foreign versions."""
    expect_versioned(
        data, "span tree", SPAN_SCHEMA_VERSION, key="v", kind=_TREE_KIND
    )
    root = Span.from_json(data["root"])
    if root.name != "session":
        raise ConfigurationError(
            f"span tree root must be a 'session' span, got {root.name!r}"
        )
    return root


# -- exact phase attribution --------------------------------------------------


def attribute_phases(root: Span, latency: float) -> Dict[str, float]:
    """Fold a tree's leaf spans into the canonical phase decomposition.

    Accumulation is in tree order per phase, and ``measured`` is the sum
    ``stall + queue-wait + worker-call + backoff`` evaluated left to
    right; ``unattributed = latency - measured`` absorbs the float
    rounding of telescoping interval differences.  The result satisfies
    ``phase_sum(result) == latency`` *exactly* (see module docstring).
    """
    totals = {name: 0.0 for name in PHASE_NAMES[:-1]}
    # One pre-order walk visits each phase's spans in the order
    # ``root.find(phase)`` lists them, so every per-phase sum is the same.
    pending = [root]
    while pending:
        span = pending.pop()
        if span.name in totals:
            totals[span.name] += span.end - span.start
        pending.extend(reversed(span.children))
    measured = (
        ((totals["stall"] + totals["queue-wait"]) + totals["worker-call"])
        + totals["backoff"]
    )
    totals["unattributed"] = latency - measured
    return totals


def phase_sum(phases: Dict[str, float]) -> float:
    """Re-add a phase decomposition in the canonical order."""
    total = 0.0
    for name in PHASE_NAMES:
        total += phases[name]
    return total


# -- canonical bytes, digest, persistence -------------------------------------


def _canonical_line(root: Span) -> str:
    return json.dumps(tree_to_json(root), sort_keys=True,
                      separators=(",", ":"))


def span_digest(roots: Iterable[Span]) -> str:
    """SHA-256 over the canonical JSONL bytes of ``roots``, in order.

    The hashed bytes are exactly what :func:`write_spans_jsonl` writes,
    so ``sha256sum SPANS_<label>.jsonl`` reproduces the hex part.
    """
    digest = hashlib.sha256()
    for root in roots:
        digest.update(_canonical_line(root).encode("utf-8"))
        digest.update(b"\n")
    return f"sha256:{digest.hexdigest()}"


def write_spans_jsonl(
    roots: Iterable[Span], path: Union[str, Path]
) -> Path:
    """Persist span trees as canonical JSONL (one session per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for root in roots:
            handle.write(_canonical_line(root))
            handle.write("\n")
    return path


def read_spans_jsonl(path: Union[str, Path]) -> List[Span]:
    """Read span trees back, rejecting foreign versions with a line number."""
    path = Path(path)
    roots: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"spans file {str(path)!r} line {line_number} is not "
                    f"JSON: {error}"
                ) from error
            try:
                roots.append(tree_from_json(data))
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"spans file {str(path)!r} line {line_number}: {error}"
                ) from error
    return roots


# -- the recorder -------------------------------------------------------------


class SpanRecorder:
    """Retains finished session trees, oldest-evicting with accounting.

    ``capacity=None`` keeps every tree (the loadtest mode: attribution
    needs all of them); a bounded capacity keeps the newest ``k`` for
    long-lived servers, counting evictions in :attr:`dropped` instead of
    discarding silently — the same contract the
    :class:`~repro.obs.tracing.TraceRecorder` ring buffer honours.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1 (or None), got {capacity}"
            )
        self.capacity = capacity
        self._trees: Deque[Span] = deque(maxlen=capacity)
        #: Trees recorded over the recorder's lifetime, evicted or not.
        self.recorded_total = 0
        #: Trees evicted by the ring bound (0 when capacity is None).
        self.dropped = 0

    def record(self, root: Span) -> None:
        if self.capacity is not None and len(self._trees) == self.capacity:
            self.dropped += 1
        self._trees.append(root)
        self.recorded_total += 1

    def __len__(self) -> int:
        return len(self._trees)

    @property
    def trees(self) -> List[Span]:
        """Retained trees in recording (session completion) order."""
        return list(self._trees)

    def tree_for(self, session_id: int) -> Optional[Span]:
        """The newest retained tree for ``session_id`` (else ``None``)."""
        for root in reversed(self._trees):
            if root.attrs.get("session_id") == session_id:
                return root
        return None

    def calls_view(self) -> List[Dict[str, Any]]:
        """The flat worker-call audit list, derived from spans.

        One entry per ``worker-call`` span, grouped by session in
        completion order then by attempt — the deadline-propagation
        invariant (``timeout <= remaining``) reads the same either way.
        """
        calls: List[Dict[str, Any]] = []
        for root in self._trees:
            for attempt in root.find("attempt"):
                for call in attempt.find("worker-call"):
                    calls.append({
                        "session_id": root.attrs.get("session_id"),
                        "shard": root.shard,
                        "attempt": attempt.attrs.get("attempt"),
                        "timeout": call.attrs.get("timeout"),
                        "remaining": call.attrs.get("remaining"),
                    })
        return calls

    def to_json(self) -> Dict[str, Any]:
        """Retention counters for snapshots and stats replies."""
        return {
            "retained": len(self._trees),
            "recorded_total": self.recorded_total,
            "dropped": self.dropped,
        }
