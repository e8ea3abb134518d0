"""Declarative chaos faults for the consensus service.

The faults of :mod:`repro.runtime.faults` perturb one simulated execution
(the adversary's power inside a run).  The faults here perturb the serving
layer that exposes those runs as sessions: workers die, shards go dark,
responses crawl.

- :class:`WorkerKillFault` — fail the next few worker attempts on a shard;
- :class:`ResponseDelayFault` — add service time on a shard for a window;
- :class:`ShardBlackoutFault` — fail every attempt on a shard for a
  window.

A :class:`ServiceFaultPlan` is an immutable, versioned-JSON value object;
:meth:`ServiceFaultPlan.controller` compiles it into a fresh stateful
:class:`ServiceFaultController` for each traffic run, which the loadgen
uses to chaos-test the service.  Times are in the service clock's seconds
(virtual seconds under the deterministic loadtest loop, wall seconds under
a live server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned

__all__ = [
    "SHARD_BLACKOUT",
    "WORKER_KILL",
    "ResponseDelayFault",
    "ServiceFaultController",
    "ServiceFaultPlan",
    "ShardBlackoutFault",
    "WorkerKillFault",
]

#: Transient failure kinds a service fault controller can report.
WORKER_KILL = "worker-kill"
SHARD_BLACKOUT = "shard-blackout"


@dataclass(frozen=True)
class WorkerKillFault:
    """Kill the next ``count`` worker attempts on ``shard`` at/after ``at``.

    A killed attempt fails transiently (the session retries under its
    backoff policy); the shard's circuit breaker records the failure.
    """

    shard: int
    at: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        # The three faults write each check ``not x >= 0`` / ``not x > 0``
        # so that it also rejects NaN, for which ``x < 0`` is false.
        if not self.shard >= 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if not self.at >= 0:
            raise ConfigurationError(f"at must be >= 0, got {self.at}")
        if not self.count >= 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ResponseDelayFault:
    """Add ``delay`` seconds of service time on ``shard`` during a window.

    The window is ``[start, start + duration)``.  Delayed attempts may
    blow their per-attempt timeout (and ultimately the session deadline),
    so this fault converts a healthy shard into a slow one — the failure
    mode circuit breakers exist for.
    """

    shard: int
    start: float
    duration: float
    delay: float

    def __post_init__(self) -> None:
        if not self.shard >= 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if not self.start >= 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if not self.duration > 0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}"
            )
        if not self.delay > 0:
            raise ConfigurationError(f"delay must be > 0, got {self.delay}")


@dataclass(frozen=True)
class ShardBlackoutFault:
    """Fail every worker attempt on ``shard`` during a window, instantly.

    The window is ``[start, start + duration)``.  A blacked-out shard is
    the canonical breaker-opening event: consecutive instant failures trip
    the breaker, which then sheds load at admission until its half-open
    probes find the shard healthy again.
    """

    shard: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if not self.shard >= 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if not self.start >= 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if not self.duration > 0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}"
            )


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A declarative bundle of service-layer faults for one traffic run.

    Mirrors :class:`~repro.runtime.faults.FaultPlan`: immutable,
    reusable, versioned-JSON round-trippable, and compiled per run into a
    fresh stateful :class:`ServiceFaultController`.  Service faults model
    operational failures, not protocol misbehaviour, so there is no
    out-of-model opt-in — every combination is a legitimate thing to throw
    at a production serving layer.
    """

    worker_kills: Tuple[WorkerKillFault, ...] = ()
    response_delays: Tuple[ResponseDelayFault, ...] = ()
    blackouts: Tuple[ShardBlackoutFault, ...] = ()

    #: JSON format version written by :meth:`to_json`.
    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "worker_kills", tuple(self.worker_kills))
        object.__setattr__(
            self, "response_delays", tuple(self.response_delays)
        )
        object.__setattr__(self, "blackouts", tuple(self.blackouts))

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.worker_kills or self.response_delays or self.blackouts)

    @property
    def shards_touched(self) -> Tuple[int, ...]:
        """Shard ids any fault targets, ascending (admission sanity checks)."""
        shards = {fault.shard for fault in self.worker_kills}
        shards.update(fault.shard for fault in self.response_delays)
        shards.update(fault.shard for fault in self.blackouts)
        return tuple(sorted(shards))

    def controller(self) -> "ServiceFaultController":
        """Build a fresh stateful controller for one traffic run."""
        return ServiceFaultController(self)

    def to_json(self) -> Dict[str, Any]:
        """A plain-JSON description that :meth:`from_json` restores exactly."""
        return {
            "version": self._JSON_VERSION,
            "worker_kills": [
                {"shard": f.shard, "at": f.at, "count": f.count}
                for f in self.worker_kills
            ],
            "response_delays": [
                {
                    "shard": f.shard,
                    "start": f.start,
                    "duration": f.duration,
                    "delay": f.delay,
                }
                for f in self.response_delays
            ],
            "blackouts": [
                {"shard": f.shard, "start": f.start, "duration": f.duration}
                for f in self.blackouts
            ],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ServiceFaultPlan":
        """Rebuild a plan from :meth:`to_json` output, rejecting foreign
        versions; every fault re-runs its own validation."""
        expect_versioned(
            data, "service fault plan", cls._JSON_VERSION, key="version"
        )
        return cls(
            worker_kills=tuple(
                WorkerKillFault(
                    shard=int(entry["shard"]),
                    at=float(entry["at"]),
                    count=int(entry["count"]),
                )
                for entry in data.get("worker_kills", ())
            ),
            response_delays=tuple(
                ResponseDelayFault(
                    shard=int(entry["shard"]),
                    start=float(entry["start"]),
                    duration=float(entry["duration"]),
                    delay=float(entry["delay"]),
                )
                for entry in data.get("response_delays", ())
            ),
            blackouts=tuple(
                ShardBlackoutFault(
                    shard=int(entry["shard"]),
                    start=float(entry["start"]),
                    duration=float(entry["duration"]),
                )
                for entry in data.get("blackouts", ())
            ),
        )


class ServiceFaultController:
    """Per-run stateful executor of a :class:`ServiceFaultPlan`.

    The service consults it at every worker attempt: blackouts win over
    worker kills (a dark shard cannot even start an attempt), worker kills
    are consumed one attempt at a time, and response delays stack if
    windows overlap.  Decisions are pure functions of ``(shard, now)`` and
    the kill budgets, so a virtual-time traffic run stays deterministic.
    """

    def __init__(self, plan: ServiceFaultPlan):
        self.plan = plan
        self._kills_left = [fault.count for fault in plan.worker_kills]
        #: (kind, shard, time) triples for every fault actually delivered.
        self.injected: List[Tuple[str, int, float]] = []

    def attempt_failure(self, shard: int, now: float) -> Optional[str]:
        """The transient-failure kind this attempt suffers, or ``None``."""
        for fault in self.plan.blackouts:
            if fault.shard == shard and \
                    fault.start <= now < fault.start + fault.duration:
                self.injected.append((SHARD_BLACKOUT, shard, now))
                return SHARD_BLACKOUT
        for index, fault in enumerate(self.plan.worker_kills):
            if fault.shard == shard and now >= fault.at \
                    and self._kills_left[index] > 0:
                self._kills_left[index] -= 1
                self.injected.append((WORKER_KILL, shard, now))
                return WORKER_KILL
        return None

    def extra_delay(self, shard: int, now: float) -> float:
        """Added service seconds for an attempt dispatched at ``now``."""
        return sum(
            fault.delay
            for fault in self.plan.response_delays
            if fault.shard == shard
            and fault.start <= now < fault.start + fault.duration
        )
