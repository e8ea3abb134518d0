"""Session request/response vocabulary for the consensus service.

A *session* is one client interaction: "run me a conciliator/consensus
round with these parameters, within this deadline."  The service answers
every admitted-or-rejected session with exactly one
:class:`SessionResponse`, whose ``status`` is one of three words:

- ``"completed"`` — a worker ran the round and ``result`` holds it;
- ``"rejected"`` — the service refused the session *at admission*, before
  spending any worker capacity; ``code`` says why (queue full, breaker
  open, or a deadline too small to ever finish);
- ``"failed"`` — the session was admitted but could not be served;
  ``code`` says why (deadline expired in flight, worker attempts
  exhausted, or the client hung up first).

Rejected-at-admission and failed-in-flight are deliberately distinct
status words with disjoint code sets: a client seeing ``rejected`` knows
the request was free to retry elsewhere (no work was done), while
``failed`` means capacity was spent — retrying blindly amplifies
overload.  Tests pin this distinction (satellite: deadline propagation).

Everything here is a plain frozen value object with versioned JSON, so
the TCP server, the in-process loadtest, and the SLO report all speak the
same words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.workloads.schedules import ALL_SCHEDULE_FAMILIES

__all__ = [
    "FAILURE_CODES",
    "REJECTION_CODES",
    "SESSION_STATUSES",
    "SessionRequest",
    "SessionResponse",
]

#: Admission-time rejection codes (status ``"rejected"``; no work done).
REJECTED_QUEUE_FULL = "queue-full"
REJECTED_BREAKER_OPEN = "breaker-open"
REJECTED_DEADLINE = "deadline-preadmission"
REJECTION_CODES = (
    REJECTED_QUEUE_FULL,
    REJECTED_BREAKER_OPEN,
    REJECTED_DEADLINE,
)

#: In-flight failure codes (status ``"failed"``; capacity was spent).
FAILED_DEADLINE = "deadline-in-flight"
FAILED_WORKER = "worker-failure"
FAILED_CLIENT_DROP = "client-drop"
FAILURE_CODES = (FAILED_DEADLINE, FAILED_WORKER, FAILED_CLIENT_DROP)

COMPLETED = "completed"
REJECTED = "rejected"
FAILED = "failed"
SESSION_STATUSES = (COMPLETED, REJECTED, FAILED)

_REQUEST_VERSION = 1


@dataclass(frozen=True)
class SessionRequest:
    """One client ask: a consensus/conciliator round within a deadline.

    Attributes:
        session_id: client-chosen id, echoed in the response; also the
            shard-routing key (``session_id % shards``).
        algorithm: catalog name from
            :data:`repro.service.workers.ALGORITHMS`.
        n: number of simulated processes (also the input width).
        schedule_family: oblivious adversary family for the round, one
            of :data:`~repro.workloads.schedules.ALL_SCHEDULE_FAMILIES`.
        deadline: total budget for the session in service-clock seconds,
            covering queueing, all retry attempts, and backoff; must be
            finite and > 0.
        seed: master seed for the round; with ``session_id`` it makes the
            simulated execution a pure function of the request.
    """

    session_id: int
    algorithm: str = "sifting"
    n: int = 8
    schedule_family: str = "permuted"
    deadline: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.session_id < 0:
            raise ConfigurationError(
                f"session_id must be >= 0, got {self.session_id}"
            )
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {self.n}")
        # Checked here, not when a worker builds the schedule: the service
        # would otherwise admit the session and spend a queue slot and a
        # worker attempt on it before the error surfaced.
        if self.schedule_family not in ALL_SCHEDULE_FAMILIES:
            raise ConfigurationError(
                f"unknown schedule family {self.schedule_family!r}; "
                f"choose from {ALL_SCHEDULE_FAMILIES}"
            )
        # NaN fails every comparison, so ``deadline <= 0`` alone lets it
        # through; an infinite deadline would serialize as ``Infinity``,
        # which strict JSON parsers reject.
        if not (math.isfinite(self.deadline) and self.deadline > 0):
            raise ConfigurationError(
                f"deadline must be finite and > 0, got {self.deadline}"
            )

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": _REQUEST_VERSION,
            "session_id": self.session_id,
            "algorithm": self.algorithm,
            "n": self.n,
            "schedule_family": self.schedule_family,
            "deadline": self.deadline,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SessionRequest":
        expect_versioned(
            data, "session request", _REQUEST_VERSION, key="version"
        )
        return cls(
            session_id=int(data["session_id"]),
            algorithm=str(data.get("algorithm", "sifting")),
            n=int(data.get("n", 8)),
            schedule_family=str(data.get("schedule_family", "permuted")),
            deadline=float(data.get("deadline", 5.0)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class SessionResponse:
    """The service's single answer to one session.

    Attributes:
        session_id: echoed from the request.
        status: ``"completed"``, ``"rejected"``, or ``"failed"``.
        code: ``None`` for completed sessions, else one of
            :data:`REJECTION_CODES` / :data:`FAILURE_CODES` matching the
            status.
        shard: shard that served (or would have served) the session.
        attempts: worker attempts actually dispatched (0 for rejections).
        latency: admission-to-response service-clock seconds (0.0 for
            rejections — they never enter the queue).
        degraded: True when overload fell the session back to the
            vectorized backend; the downgrade is surfaced, never silent.
        backend: engine that produced the result (``"generator"`` or
            ``"vectorized"``), ``None`` when no attempt completed.
        result: completed sessions only — agreement flag, step counts.
    """

    session_id: int
    status: str
    code: Optional[str] = None
    shard: int = 0
    attempts: int = 0
    latency: float = 0.0
    degraded: bool = False
    backend: Optional[str] = None
    result: Optional[Dict[str, Any]] = field(default=None)

    def __post_init__(self) -> None:
        if self.status not in SESSION_STATUSES:
            raise ConfigurationError(
                f"unknown session status {self.status!r}; "
                f"choose from {SESSION_STATUSES}"
            )
        if self.status == COMPLETED and self.code is not None:
            raise ConfigurationError(
                f"completed sessions carry no code, got {self.code!r}"
            )
        if self.status == REJECTED and self.code not in REJECTION_CODES:
            raise ConfigurationError(
                f"rejected sessions need a code from {REJECTION_CODES}, "
                f"got {self.code!r}"
            )
        if self.status == FAILED and self.code not in FAILURE_CODES:
            raise ConfigurationError(
                f"failed sessions need a code from {FAILURE_CODES}, "
                f"got {self.code!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status == COMPLETED

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": _REQUEST_VERSION,
            "session_id": self.session_id,
            "status": self.status,
            "code": self.code,
            "shard": self.shard,
            "attempts": self.attempts,
            "latency": self.latency,
            "degraded": self.degraded,
            "backend": self.backend,
            "result": self.result,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SessionResponse":
        expect_versioned(
            data, "session response", _REQUEST_VERSION, key="version"
        )
        return cls(
            session_id=int(data["session_id"]),
            status=str(data["status"]),
            code=data.get("code"),
            shard=int(data.get("shard", 0)),
            attempts=int(data.get("attempts", 0)),
            latency=float(data.get("latency", 0.0)),
            degraded=bool(data.get("degraded", False)),
            backend=data.get("backend"),
            result=data.get("result"),
        )
