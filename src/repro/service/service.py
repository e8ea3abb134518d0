"""The consensus service: admission control, retries, breakers, degradation.

:class:`ConsensusService` turns the repo's simulators into a served
system: clients submit :class:`~repro.service.session.SessionRequest`\\ s,
sharded workers run the rounds, and every robustness decision the ISSUE
names happens here, in one place, in deterministic order:

- **Bounded admission** — each shard admits at most ``queue_capacity``
  concurrent sessions; the rest get an instant
  ``Rejected(code="queue-full")`` instead of unbounded queueing (the
  load-shedding half of backpressure).
- **Deadline budgets** — a session's ``deadline`` is a total budget
  covering queue wait, client stalls, every retry attempt, and backoff.
  Each worker call's timeout is ``min(attempt_timeout, remaining)`` — the
  invariant the deadline-propagation tests pin — so no attempt can
  outlive its session.
- **Retries with capped full jitter** — transient worker failures (chaos
  kills, blackouts, timeouts) retry up to ``max_attempts`` times under
  the same :class:`~repro.runtime.backoff.BackoffPolicy` object the
  parallel sweep engine uses, with per-session seeded jitter.
- **Circuit breakers** — one :class:`~repro.service.breaker.CircuitBreaker`
  per shard, consulted at admission, fed by attempt outcomes; an open
  breaker sheds with ``Rejected(code="breaker-open")``.
- **Graceful degradation** — when queue occupancy stays above
  ``degrade_watermark`` for ``degrade_after`` seconds, eligible sessions
  fall back from the generator simulator to the ~50× vectorized backend;
  the response carries ``degraded=True`` so the downgrade is never
  silent.  Occupancy back under ``degrade_recover`` restores normal mode.

**The cost model.**  Simulated rounds are CPU-bound, so the service never
measures wall clock: an attempt's *service time* is computed from the
round's charged step count as ``dispatch_overhead + steps /
worker_steps_per_sec`` (divided by ``vectorized_speedup`` on the degraded
path, matching the ~52× speedup PR 6 measured) plus any chaos response
delay, and then *slept* on the event loop.  Under the virtual-time loop
(:mod:`repro.service.vtime`) those sleeps are instant and exact, which
makes a whole loadtest a pure function of its seeds; under a real loop
(``repro serve``) the same sleeps model a realistically loaded backend.

**Span trees.**  Every session — admitted or shed — leaves one
:class:`~repro.service.spans.Span` tree in :attr:`ConsensusService.spans`
recording where its deadline budget went (admission, breaker decision,
client stall, per-attempt queue wait / worker call / backoff), with
virtual-time boundaries taken from the serving loop.  Phase boundary
timestamps are shared between adjacent spans (each boundary is read from
the clock exactly once), so the leaf spans tile the session's lifetime
and :func:`~repro.service.spans.attribute_phases` decomposes its latency
exactly.  The flat worker-call audit list is a view over these trees
(:attr:`ConsensusService.calls`).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.backoff import BackoffPolicy
from repro.runtime.faults import ServiceFaultController, ServiceFaultPlan
from repro.service.breaker import HALF_OPEN, BreakerConfig, CircuitBreaker
from repro.service.session import (
    COMPLETED,
    FAILED,
    FAILED_CLIENT_DROP,
    FAILED_DEADLINE,
    FAILED_WORKER,
    REJECTED,
    REJECTED_BREAKER_OPEN,
    REJECTED_DEADLINE,
    REJECTED_QUEUE_FULL,
    SessionRequest,
    SessionResponse,
)
from repro.service.spans import Span, SpanRecorder, attribute_phases
from repro.service.workers import (
    ALGORITHMS,
    execute_session,
    vectorized_eligible,
)

__all__ = ["ConsensusService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`ConsensusService` instance.

    Attributes:
        shards: worker shards; sessions route by ``session_id % shards``.
        workers_per_shard: concurrent worker slots per shard.
        queue_capacity: max concurrent admitted sessions per shard
            (queued + in service); more means queue-full shedding.
        worker_steps_per_sec: cost model — simulated charged steps one
            worker retires per service-clock second.
        vectorized_speedup: cost-model divisor for degraded attempts
            (PR 6 measured ~52× on sweep workloads).
        dispatch_overhead: fixed per-attempt overhead seconds.
        attempt_timeout: per-attempt timeout ceiling; the effective
            timeout is ``min(attempt_timeout, remaining budget)``.
        max_attempts: worker attempts per session before giving up.
        backoff: retry backoff policy, shared shape with the sweep engine.
        breaker: per-shard circuit breaker configuration.
        degrade_watermark: queue occupancy fraction that starts the
            overload clock.
        degrade_after: seconds occupancy must stay above the watermark
            before degraded mode engages.
        degrade_recover: occupancy fraction at or below which degraded
            mode disengages.
        seed: master seed for service-side randomness (retry jitter).
        span_capacity: how many finished session span trees to retain
            (``None`` = all, the loadtest mode; bound it for long-lived
            servers — evictions are counted, never silent).
    """

    shards: int = 2
    workers_per_shard: int = 2
    queue_capacity: int = 16
    worker_steps_per_sec: float = 20_000.0
    vectorized_speedup: float = 50.0
    dispatch_overhead: float = 0.001
    attempt_timeout: float = 0.5
    max_attempts: int = 3
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.05, max_delay=0.5)
    )
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    degrade_watermark: float = 0.75
    degrade_after: float = 0.5
    degrade_recover: float = 0.25
    seed: int = 0
    span_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.span_capacity is not None and self.span_capacity < 1:
            raise ConfigurationError(
                f"span_capacity must be >= 1 (or None), "
                f"got {self.span_capacity}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.workers_per_shard < 1:
            raise ConfigurationError(
                f"workers_per_shard must be >= 1, "
                f"got {self.workers_per_shard}"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.worker_steps_per_sec <= 0:
            raise ConfigurationError(
                f"worker_steps_per_sec must be > 0, "
                f"got {self.worker_steps_per_sec}"
            )
        if self.vectorized_speedup < 1:
            raise ConfigurationError(
                f"vectorized_speedup must be >= 1, "
                f"got {self.vectorized_speedup}"
            )
        if self.dispatch_overhead < 0:
            raise ConfigurationError(
                f"dispatch_overhead must be >= 0, "
                f"got {self.dispatch_overhead}"
            )
        if self.attempt_timeout <= 0:
            raise ConfigurationError(
                f"attempt_timeout must be > 0, got {self.attempt_timeout}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0 < self.degrade_watermark <= 1:
            raise ConfigurationError(
                f"degrade_watermark must be in (0, 1], "
                f"got {self.degrade_watermark}"
            )
        if self.degrade_after < 0:
            raise ConfigurationError(
                f"degrade_after must be >= 0, got {self.degrade_after}"
            )
        if not 0 <= self.degrade_recover < self.degrade_watermark:
            raise ConfigurationError(
                f"degrade_recover must be in [0, degrade_watermark), "
                f"got {self.degrade_recover}"
            )


class _Shard:
    """One shard's breaker, worker slots, and occupancy accounting."""

    def __init__(self, config: ServiceConfig):
        self.breaker = CircuitBreaker(config.breaker)
        self.workers = asyncio.Semaphore(config.workers_per_shard)
        self.occupancy = 0


class ConsensusService:
    """Sharded, deadline-aware, degradable consensus-round service.

    One instance serves one event loop (virtual or real).  All state is
    loop-confined — no locks beyond the worker semaphores — and every
    decision consults the loop clock, so the same request stream replays
    identically on the virtual loop.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        chaos: Optional[ServiceFaultPlan] = None,
    ):
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.chaos: Optional[ServiceFaultController] = (
            None if chaos is None or chaos.is_empty else chaos.controller()
        )
        self._shards = [_Shard(self.config) for _ in range(self.config.shards)]
        # Degraded-mode state: the overload clock starts when occupancy
        # crosses the watermark and the mode flips after degrade_after.
        self.degraded = False
        self._overload_since: Optional[float] = None
        self._degraded_entered_at = 0.0
        self.degraded_entries = 0
        self.degraded_seconds = 0.0
        #: Finished session span trees, in completion order.
        self.spans = SpanRecorder(capacity=self.config.span_capacity)
        #: Terminal-status tallies for snapshots ({status: {code: n}}).
        self._session_counts: Dict[str, Dict[str, int]] = {
            REJECTED: {}, FAILED: {},
        }
        self._completed_count = 0

    # -- introspection -------------------------------------------------------

    @property
    def calls(self) -> List[Dict[str, Any]]:
        """Flat worker-call audit view (deadline-propagation tests).

        Derived from the retained span trees; see
        :meth:`~repro.service.spans.SpanRecorder.calls_view`.
        """
        return self.spans.calls_view()

    def shard_for(self, session_id: int) -> int:
        return session_id % self.config.shards

    def breaker(self, shard: int) -> CircuitBreaker:
        return self._shards[shard].breaker

    @property
    def total_occupancy(self) -> int:
        return sum(shard.occupancy for shard in self._shards)

    def snapshot(self, now: float) -> Dict[str, Any]:
        """The service's full self-view: breakers, degradation,
        occupancy, terminal-status tallies, and span retention.

        This one dict feeds the SLO report, the server's
        ``{"cmd": "stats"}`` control verb, and the ``repro serve
        --stats-interval`` self-report, so all three agree by
        construction.
        """
        self._settle_degraded(now)
        return {
            "breakers": {
                str(index): shard.breaker.to_json()
                for index, shard in enumerate(self._shards)
            },
            "breaker_timelines": {
                str(index): shard.breaker.timeline_json()
                for index, shard in enumerate(self._shards)
            },
            "degraded_mode": {
                "active": self.degraded,
                "entered": self.degraded_entries,
                "virtual_seconds": self.degraded_seconds,
            },
            "occupancy": {
                "per_shard": [shard.occupancy for shard in self._shards],
                "total": self.total_occupancy,
                "capacity_per_shard": self.config.queue_capacity,
            },
            "sessions": {
                "completed": self._completed_count,
                "rejected": dict(sorted(
                    self._session_counts[REJECTED].items()
                )),
                "failed": dict(sorted(
                    self._session_counts[FAILED].items()
                )),
            },
            "spans": self.spans.to_json(),
        }

    # -- degradation clock ---------------------------------------------------

    def _capacity(self) -> int:
        return self.config.shards * self.config.queue_capacity

    def _update_overload(self, now: float) -> None:
        fraction = self.total_occupancy / self._capacity()
        if self.degraded:
            if fraction <= self.config.degrade_recover:
                self.degraded = False
                self.degraded_seconds += now - self._degraded_entered_at
                self._overload_since = None
                self.metrics.counter("service.degraded", event="exit").inc()
            return
        if fraction >= self.config.degrade_watermark:
            if self._overload_since is None:
                self._overload_since = now
            elif now - self._overload_since >= self.config.degrade_after:
                self.degraded = True
                self.degraded_entries += 1
                self._degraded_entered_at = now
                self.metrics.counter("service.degraded", event="enter").inc()
        else:
            self._overload_since = None

    def _settle_degraded(self, now: float) -> None:
        """Fold any still-open degraded window into the seconds counter."""
        if self.degraded:
            self.degraded_seconds += now - self._degraded_entered_at
            self._degraded_entered_at = now

    # -- the session lifecycle ----------------------------------------------

    async def submit(
        self,
        request: SessionRequest,
        *,
        client_stall: float = 0.0,
        drop_at: Optional[float] = None,
    ) -> SessionResponse:
        """Serve one session to a terminal response.

        ``client_stall`` models a slow client: the budget burns for that
        long between admission and the first attempt.  ``drop_at`` models
        a client hanging up at that loop time: the service still finishes
        the work (capacity is spent either way — the real cost of drops),
        but a completion after the hangup is reported as
        ``failed/client-drop`` because nobody received it.  An unknown
        algorithm raises :class:`ConfigurationError` before admission.
        """
        # Refused before the breaker or any counter sees it, as
        # SessionRequest refuses an unknown family: no worker can run the
        # session, so admitting it would only spend a slot and an attempt.
        if request.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {request.algorithm!r}; "
                f"choose from {tuple(sorted(ALGORITHMS))}"
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        shard_index = self.shard_for(request.session_id)
        shard = self._shards[shard_index]
        root = Span(
            name="session", start=now, end=now, shard=shard_index,
            attrs={
                "session_id": request.session_id,
                "deadline": request.deadline,
            },
        )

        # Admission: breaker first (cheapest signal of a sick shard), then
        # queue bound, then a deadline sanity check — a budget too small to
        # cover even the dispatch overhead can never be met, and rejecting
        # it up front costs nothing.
        allowed = shard.breaker.allow(now)
        # A half-open breaker admitted this session as a probe and reserved
        # a slot; every path from here must release it — via an attempt
        # outcome (record_success/record_failure) or probe_abandoned.
        probe = allowed and shard.breaker.state == HALF_OPEN
        root.child("breaker", now, status=shard.breaker.state,
                   shard=shard_index, probe=probe)
        if not allowed:
            root.child("admission", now, status=REJECTED,
                       code=REJECTED_BREAKER_OPEN)
            return self._reject(
                request, shard_index, REJECTED_BREAKER_OPEN, root
            )
        if shard.occupancy >= self.config.queue_capacity:
            if probe:
                shard.breaker.probe_abandoned(now)
            root.child("admission", now, status=REJECTED,
                       code=REJECTED_QUEUE_FULL)
            return self._reject(
                request, shard_index, REJECTED_QUEUE_FULL, root
            )
        if request.deadline <= self.config.dispatch_overhead:
            if probe:
                shard.breaker.probe_abandoned(now)
            root.child("admission", now, status=REJECTED,
                       code=REJECTED_DEADLINE)
            return self._reject(
                request, shard_index, REJECTED_DEADLINE, root
            )
        root.child("admission", now, status="admitted")

        shard.occupancy += 1
        self._update_overload(now)
        self.metrics.counter("service.admitted").inc()
        admitted_at = now
        deadline_at = admitted_at + request.deadline
        try:
            response = await self._serve(
                request, shard_index, shard, admitted_at, deadline_at,
                client_stall, probe, root,
            )
        finally:
            shard.occupancy -= 1
            self._update_overload(loop.time())

        if (
            response.status == COMPLETED
            and drop_at is not None
            and loop.time() > drop_at
        ):
            # The round finished, but the client was gone: spent capacity
            # with zero goodput.  Do not count it as a completion.
            response = SessionResponse(
                session_id=request.session_id,
                status=FAILED,
                code=FAILED_CLIENT_DROP,
                shard=shard_index,
                attempts=response.attempts,
                latency=response.latency,
                degraded=response.degraded,
                backend=response.backend,
            )
        # No awaits since the terminal timestamp inside _serve, so
        # loop.time() here still reads it: the root span closes exactly
        # where the last leaf span ended.
        self._finish_tree(root, response, loop.time())
        self._count(response)
        return response

    async def _serve(
        self,
        request: SessionRequest,
        shard_index: int,
        shard: _Shard,
        admitted_at: float,
        deadline_at: float,
        client_stall: float,
        probe: bool,
        root: Span,
    ) -> SessionResponse:
        loop = asyncio.get_running_loop()
        # Seeded on the first retry: most sessions never back off.
        jitter: Optional[random.Random] = None
        degraded_session = False
        # ``cursor`` tracks the last phase boundary.  Each boundary is
        # read from the clock exactly once and shared between the span it
        # closes and the span it opens, so the leaf spans tile the
        # session's lifetime — the precondition for the exact phase
        # decomposition attribute_phases performs at the end.
        cursor = admitted_at
        # ``probe`` means this session still holds the half-open probe
        # slot its admission reserved.  The first attempt outcome reported
        # to the breaker releases it inside record_success/record_failure;
        # the finally below covers every exit path that ends the session
        # without reporting one (deadline during the stall or queue wait,
        # budget-clipped abandonment), so slots cannot leak and wedge the
        # breaker half-open.
        try:
            if client_stall > 0:
                await asyncio.sleep(
                    min(client_stall, max(0.0, deadline_at - cursor))
                )
                now = loop.time()
                root.child("stall", cursor, now, status="stalled",
                           shard=shard_index)
                cursor = now
            for attempt in range(self.config.max_attempts):
                ok = False
                attempt_span = root.child(
                    "attempt", cursor, shard=shard_index, attempt=attempt,
                )
                remaining = deadline_at - cursor
                if remaining <= 0:
                    attempt_span.status = "deadline"
                    return self._failed(
                        request, shard_index, FAILED_DEADLINE, attempt,
                        admitted_at, cursor, degraded_session,
                    )
                # Queue wait burns budget too: give up when the deadline
                # passes before a worker slot frees up.
                try:
                    await asyncio.wait_for(
                        shard.workers.acquire(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    now = loop.time()
                    attempt_span.child("queue-wait", cursor, now,
                                       status="deadline",
                                       shard=shard_index)
                    attempt_span.status = "deadline"
                    attempt_span.end = now
                    return self._failed(
                        request, shard_index, FAILED_DEADLINE, attempt,
                        admitted_at, now, degraded_session,
                    )
                now = loop.time()
                attempt_span.child("queue-wait", cursor, now,
                                   status="acquired", shard=shard_index)
                cursor = now
                try:
                    remaining = deadline_at - cursor
                    if remaining <= 0:
                        attempt_span.status = "deadline"
                        attempt_span.end = cursor
                        return self._failed(
                            request, shard_index, FAILED_DEADLINE, attempt,
                            admitted_at, cursor, degraded_session,
                        )
                    # THE deadline-propagation invariant: a worker call's
                    # timeout never exceeds the session's remaining budget.
                    timeout = min(self.config.attempt_timeout, remaining)
                    call_span = attempt_span.child(
                        "worker-call", cursor, shard=shard_index,
                        timeout=timeout, remaining=remaining,
                    )
                    self.metrics.counter("service.attempts").inc()

                    injected = (
                        self.chaos.attempt_failure(shard_index, cursor)
                        if self.chaos is not None
                        else None
                    )
                    if injected is not None:
                        # Chaos failures are near-instant: the worker dies
                        # on dispatch rather than mid-round.
                        await asyncio.sleep(
                            min(self.config.dispatch_overhead, timeout)
                        )
                        cursor = loop.time()
                        call_span.end = cursor
                        call_span.status = "chaos"
                        call_span.attrs["chaos"] = injected
                        attempt_span.status = "chaos"
                        self.metrics.counter(
                            "service.chaos", kind=injected
                        ).inc()
                        probe = False
                        shard.breaker.record_failure(cursor)
                        ok = False
                    else:
                        use_vectorized = (
                            self.degraded and vectorized_eligible(request)
                        )
                        degraded_session = degraded_session or use_vectorized
                        backend = (
                            "vectorized" if use_vectorized else "generator"
                        )
                        outcome = execute_session(request, backend=backend)
                        duration = self._service_time(
                            outcome.steps, backend, shard_index, cursor
                        )
                        call_span.attrs["backend"] = backend
                        if duration > timeout:
                            # The attempt is abandoned at its timeout; the
                            # worker slot was held for the whole window.
                            await asyncio.sleep(timeout)
                            cursor = loop.time()
                            call_span.end = cursor
                            if duration > self.config.attempt_timeout:
                                # Missing the full attempt window says the
                                # shard is slow; a timeout clipped by the
                                # client's remaining budget only measures
                                # deadline pressure, so it must not feed
                                # the breaker — the session fails as a
                                # deadline miss on the next loop check.
                                call_span.status = "timeout"
                                probe = False
                                shard.breaker.record_failure(cursor)
                            else:
                                call_span.status = "timeout-clipped"
                            attempt_span.status = call_span.status
                            ok = False
                        else:
                            await asyncio.sleep(duration)
                            finished = loop.time()
                            call_span.end = finished
                            call_span.status = COMPLETED
                            attempt_span.status = COMPLETED
                            attempt_span.end = finished
                            probe = False
                            shard.breaker.record_success(finished)
                            return SessionResponse(
                                session_id=request.session_id,
                                status=COMPLETED,
                                shard=shard_index,
                                attempts=attempt + 1,
                                latency=finished - admitted_at,
                                degraded=degraded_session,
                                backend=backend,
                                result=outcome.to_json(),
                            )
                finally:
                    shard.workers.release()
                attempt_span.end = cursor
                if not ok and attempt + 1 < self.config.max_attempts:
                    if jitter is None:
                        jitter = BackoffPolicy.rng(
                            self.config.seed, "service",
                            str(request.session_id),
                        )
                    delay = self.config.backoff.delay(attempt, jitter)
                    remaining = deadline_at - cursor
                    if remaining <= 0:
                        return self._failed(
                            request, shard_index, FAILED_DEADLINE,
                            attempt + 1, admitted_at, cursor,
                            degraded_session,
                        )
                    await asyncio.sleep(min(delay, remaining))
                    now = loop.time()
                    attempt_span.child("backoff", cursor, now,
                                       status="waited", shard=shard_index,
                                       delay=delay)
                    attempt_span.end = now
                    cursor = now
            return self._failed(
                request, shard_index, FAILED_WORKER,
                self.config.max_attempts, admitted_at, cursor,
                degraded_session,
            )
        finally:
            if probe:
                shard.breaker.probe_abandoned(loop.time())

    def _service_time(
        self, steps: float, backend: str, shard_index: int, now: float
    ) -> float:
        duration = steps / self.config.worker_steps_per_sec
        if backend == "vectorized":
            duration /= self.config.vectorized_speedup
        duration += self.config.dispatch_overhead
        if self.chaos is not None:
            duration += self.chaos.extra_delay(shard_index, now)
        return duration

    def _reject(
        self,
        request: SessionRequest,
        shard_index: int,
        code: str,
        root: Span,
    ) -> SessionResponse:
        response = SessionResponse(
            session_id=request.session_id,
            status=REJECTED,
            code=code,
            shard=shard_index,
        )
        self._finish_tree(root, response, root.start)
        self._count(response)
        return response

    def _finish_tree(
        self, root: Span, response: SessionResponse, now: float
    ) -> None:
        """Close a session's root span and file the finished tree."""
        root.end = now
        root.status = response.status
        root.attrs["code"] = response.code
        root.attrs["attempts"] = response.attempts
        root.attrs["latency"] = response.latency
        root.attrs["degraded"] = response.degraded
        root.attrs["backend"] = response.backend
        root.attrs["phases"] = attribute_phases(root, response.latency)
        self.spans.record(root)

    def _failed(
        self,
        request: SessionRequest,
        shard_index: int,
        code: str,
        attempts: int,
        admitted_at: float,
        now: float,
        degraded: bool,
    ) -> SessionResponse:
        return SessionResponse(
            session_id=request.session_id,
            status=FAILED,
            code=code,
            shard=shard_index,
            attempts=attempts,
            latency=now - admitted_at,
            degraded=degraded,
        )

    def _count(self, response: SessionResponse) -> None:
        if response.status == COMPLETED:
            self._completed_count += 1
            self.metrics.counter(
                "service.completed", backend=response.backend or "generator"
            ).inc()
            self.metrics.histogram("service.latency").observe(
                response.latency
            )
            if response.degraded:
                self.metrics.counter("service.degraded_sessions").inc()
        elif response.status == REJECTED:
            code = response.code or ""
            counts = self._session_counts[REJECTED]
            counts[code] = counts.get(code, 0) + 1
            self.metrics.counter(
                "service.rejected", reason=code
            ).inc()
        else:
            code = response.code or ""
            counts = self._session_counts[FAILED]
            counts[code] = counts.get(code, 0) + 1
            self.metrics.counter(
                "service.failed", code=code
            ).inc()
