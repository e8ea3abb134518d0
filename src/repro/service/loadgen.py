"""Deterministic open-loop traffic generation for the consensus service.

The loadgen is *open-loop*: arrival times come from a seeded Poisson
process that does not slow down when the service struggles — exactly the
regime where bounded queues and load-shedding matter (a closed-loop
generator self-throttles and can never demonstrate overload collapse).
Four :class:`ArrivalProfile`\\ s cover the ISSUE's traffic shapes:

- ``steady`` — constant-rate Poisson arrivals;
- ``burst`` — a base rate with periodic high-rate bursts (the overload
  story: shedding, degradation, breaker transitions);
- ``slow-clients`` — a fraction of sessions stall between admission and
  first attempt, burning deadline budget while holding queue slots;
- ``drops`` — a fraction of clients hang up before their response lands.

Everything is drawn up front, in arrival order, from one seeded stream:
the full arrival table (times, per-session stalls, drops) exists before
the first coroutine runs, so the traffic is a pure function of
``(profile, sessions, seed)`` and the whole loadtest — run on the
virtual-time loop via :func:`run_loadtest` — is a pure function of its
arguments.  Same seed, same report, any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import asyncio

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.rng import derive_seed
from repro.service.faults import ServiceFaultPlan
from repro.service.service import ConsensusService, ServiceConfig
from repro.service.session import SessionRequest, SessionResponse
from repro.service.spans import Span
from repro.service.vtime import run_virtual
from repro.service.workers import ALGORITHMS

__all__ = [
    "ArrivalProfile",
    "LoadtestResult",
    "PROFILES",
    "run_loadtest",
]


@dataclass(frozen=True)
class ArrivalProfile:
    """One open-loop traffic shape.

    Attributes:
        name: profile identifier (also seeds the arrival stream).
        rate: baseline arrival rate, sessions per second.
        burst_rate: arrival rate inside burst windows (defaults to
            ``rate``: no bursts).
        burst_every: burst period in seconds; a burst occupies the first
            ``burst_duration`` seconds of each period.
        burst_duration: seconds each burst lasts.
        stall_fraction: fraction of sessions that are slow clients.
        stall_seconds: budget a slow client burns before its first
            attempt.
        drop_fraction: fraction of clients that hang up early.
        drop_after: seconds after arrival at which a dropping client
            hangs up.
    """

    name: str
    rate: float = 100.0
    burst_rate: Optional[float] = None
    burst_every: float = 4.0
    burst_duration: float = 1.0
    stall_fraction: float = 0.0
    stall_seconds: float = 0.0
    drop_fraction: float = 0.0
    drop_after: float = 0.05

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be > 0, got {self.rate}")
        if self.burst_rate is not None and self.burst_rate <= 0:
            raise ConfigurationError(
                f"burst_rate must be > 0, got {self.burst_rate}"
            )
        if self.burst_every <= 0 or self.burst_duration < 0:
            raise ConfigurationError(
                "burst_every must be > 0 and burst_duration >= 0, got "
                f"{self.burst_every}/{self.burst_duration}"
            )
        if self.burst_duration >= self.burst_every:
            raise ConfigurationError(
                f"burst_duration ({self.burst_duration}) must be shorter "
                f"than burst_every ({self.burst_every})"
            )
        for label, fraction in (
            ("stall_fraction", self.stall_fraction),
            ("drop_fraction", self.drop_fraction),
        ):
            if not 0 <= fraction <= 1:
                raise ConfigurationError(
                    f"{label} must be in [0, 1], got {fraction}"
                )

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at traffic time ``t``."""
        if self.burst_rate is None:
            return self.rate
        return (
            self.burst_rate
            if (t % self.burst_every) < self.burst_duration
            else self.rate
        )


#: The stock traffic shapes; ``repro loadtest --profile`` names these.
PROFILES: Dict[str, ArrivalProfile] = {
    "steady": ArrivalProfile(name="steady", rate=150.0),
    "burst": ArrivalProfile(
        name="burst",
        rate=150.0,
        burst_rate=1200.0,
        burst_every=4.0,
        burst_duration=1.5,
    ),
    "slow-clients": ArrivalProfile(
        name="slow-clients",
        rate=150.0,
        stall_fraction=0.2,
        stall_seconds=0.4,
    ),
    "drops": ArrivalProfile(
        name="drops",
        rate=150.0,
        drop_fraction=0.15,
        drop_after=0.02,
    ),
}


@dataclass(frozen=True)
class _Arrival:
    """One pre-drawn session: when it arrives and how the client behaves."""

    at: float
    request: SessionRequest
    stall: float
    drop_after: Optional[float]


@dataclass
class LoadtestResult:
    """Everything one loadtest run produced, in virtual-time terms."""

    profile: str
    seed: int
    sessions: int
    responses: List[SessionResponse]
    duration: float
    service_snapshot: Dict[str, Any]
    metrics: MetricsRegistry
    #: Sessions left without a response because ``submit`` raised.
    unexpected_errors: int
    config: ServiceConfig
    #: One span tree per session, in completion order (None only for
    #: results built by code predating the span schema).
    spans: Optional[List[Span]] = None


def _draw_arrivals(
    profile: ArrivalProfile,
    sessions: int,
    seed: int,
    *,
    algorithm: str,
    n: int,
    schedule_family: str,
    deadline: float,
) -> List[_Arrival]:
    """The full traffic table, drawn up front from one seeded stream."""
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {tuple(sorted(ALGORITHMS))}"
        )
    rng = random.Random(derive_seed(seed, "loadgen", profile.name))
    arrivals: List[_Arrival] = []
    t = 0.0
    for index in range(sessions):
        t += rng.expovariate(profile.rate_at(t))
        stall = (
            profile.stall_seconds
            if profile.stall_fraction > 0
            and rng.random() < profile.stall_fraction
            else 0.0
        )
        drop_after = (
            profile.drop_after
            if profile.drop_fraction > 0
            and rng.random() < profile.drop_fraction
            else None
        )
        arrivals.append(_Arrival(
            at=t,
            request=SessionRequest(
                session_id=index,
                algorithm=algorithm,
                n=n,
                schedule_family=schedule_family,
                deadline=deadline,
                seed=seed,
            ),
            stall=stall,
            drop_after=drop_after,
        ))
    return arrivals


async def _drive(
    arrivals: List[_Arrival],
    service: ConsensusService,
) -> List[Optional[SessionResponse]]:
    """Replay the arrival table against ``service`` on the current loop.

    One timer is pending for the arrivals at any time: the callback for
    arrival ``k`` starts that session's task and schedules arrival
    ``k + 1``.  A session whose ``submit`` raises keeps a ``None``
    response slot, so every broken session is counted once.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    responses: List[Optional[SessionResponse]] = [None] * len(arrivals)
    # The loop holds tasks weakly: this keeps each session's task alive
    # until it finishes, and no longer.
    running: Dict[int, "asyncio.Task[None]"] = {}
    unfinished = len(arrivals)
    finished = loop.create_future()

    async def one(index: int, arrival: _Arrival) -> None:
        nonlocal unfinished
        drop_at = (
            None
            if arrival.drop_after is None
            else start + arrival.at + arrival.drop_after
        )
        try:
            responses[index] = await service.submit(
                arrival.request,
                client_stall=arrival.stall,
                drop_at=drop_at,
            )
        except Exception:
            # Anything escaping submit() is a service bug; the SLO gate in
            # CI requires the count of sessions left without a response
            # to be zero.
            pass
        finally:
            del running[index]
            unfinished -= 1
            if not unfinished:
                finished.set_result(None)

    def spawn(index: int) -> None:
        running[index] = loop.create_task(one(index, arrivals[index]))
        index += 1
        if index < len(arrivals):
            loop.call_at(start + arrivals[index].at, spawn, index)

    loop.call_at(start + arrivals[0].at, spawn, 0)
    await finished
    # ``spawn`` refers to itself through its closure; dropping the name
    # breaks that cycle, so what it holds is freed when this returns.
    del spawn
    return responses


def run_loadtest(
    *,
    profile: str = "steady",
    sessions: int = 1000,
    seed: int = 0,
    config: Optional[ServiceConfig] = None,
    chaos: Optional[ServiceFaultPlan] = None,
    algorithm: str = "sifting",
    n: int = 8,
    schedule_family: str = "permuted",
    deadline: float = 5.0,
) -> LoadtestResult:
    """Run one seeded loadtest to completion on a virtual-time loop.

    Returns instantly in wall-clock terms regardless of how many virtual
    seconds the traffic spans.  The result is a pure function of the
    arguments: same inputs ⇒ identical responses, metrics, and snapshot
    (the determinism the committed SLO baseline is diffed against).
    """
    if sessions < 1:
        raise ConfigurationError(f"sessions must be >= 1, got {sessions}")
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; "
            f"choose from {tuple(sorted(PROFILES))}"
        )
    shape = PROFILES[profile]
    resolved = config or ServiceConfig()
    arrivals = _draw_arrivals(
        shape, sessions, seed,
        algorithm=algorithm, n=n,
        schedule_family=schedule_family, deadline=deadline,
    )

    async def main() -> Tuple[
        List[Optional[SessionResponse]], Dict[str, Any], float,
        MetricsRegistry, List[Span],
    ]:
        loop = asyncio.get_running_loop()
        metrics = MetricsRegistry()
        service = ConsensusService(resolved, metrics=metrics, chaos=chaos)
        start = loop.time()
        responses = await _drive(arrivals, service)
        end = loop.time()
        return (
            responses, service.snapshot(end), end - start, metrics,
            service.spans.trees,
        )

    responses, snapshot, duration, metrics, spans = run_virtual(main())
    missing = sum(1 for response in responses if response is None)
    return LoadtestResult(
        profile=profile,
        seed=seed,
        sessions=sessions,
        responses=[r for r in responses if r is not None],
        duration=duration,
        service_snapshot=snapshot,
        metrics=metrics,
        unexpected_errors=missing,
        config=resolved,
        spans=spans,
    )
