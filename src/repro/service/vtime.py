"""A deterministic virtual-time asyncio event loop for traffic replay.

The loadtest's acceptance bar is *byte-identical SLO reports from the same
seed* — on any machine, at any load.  A real event loop cannot deliver
that: wall-clock timer expiry interleaves with CPU speed, so two runs of
the same seeded arrival process admit and time out sessions in different
orders.  The fix is the classic discrete-event trick, applied to asyncio
itself: run a single-threaded selector loop whose clock is a plain float
that *jumps* to the next scheduled timer whenever the ready queue drains.

Concretely, :class:`VirtualTimeEventLoop` subclasses
:class:`asyncio.SelectorEventLoop` and overrides two methods:

- :meth:`time` returns the virtual clock instead of ``time.monotonic()``;
- :meth:`_run_once` advances the virtual clock to the earliest pending
  timer deadline when no callback is ready, then defers to the stock
  implementation (which now sees that timer as already due).

Every ``await asyncio.sleep(dt)`` therefore completes in zero wall-clock
time but exactly ``dt`` virtual seconds.  The loop is single threaded
with no real I/O, so callback order is a pure function of the program.
That is not because timers with equal deadlines keep their scheduling
order: ``TimerHandle`` compares ``_when`` only, so ``heapq`` may pop
equal-deadline timers in any order (eight handles pushed with one
deadline pop as ``[0, 2, 6, 5, 7, 4, 1, 3]`` on CPython 3.11).  It is
because the sequence of heap pushes and pops is itself a pure function
of the program, so even the tie order replays exactly.  A change to
*which* timers a program schedules can therefore reorder equal-deadline
callbacks, and must be checked against the seeded span digests.  The
service code does not know which loop it is on: ``repro loadtest`` runs
it here, ``repro serve`` runs the same coroutines on the standard
real-time loop.

The loop does no I/O, so its selector (:class:`_NoIOSelector`) answers
``select()`` with no events and makes no syscall.  The only file
descriptor it accepts is the loop's own self-pipe, registered while the
loop is built; registering any other raises, because it would never be
polled.  A loop with nothing ready and no timer pending can never wake
up again, and ``select()`` raises there instead of hanging.

The two private attributes this relies on (``_ready``, ``_scheduled`` and
the ``TimerHandle._when``/``_cancelled`` fields) have been stable across
every CPython 3.x asyncio release; a guard in ``__init__`` fails loudly if
a future interpreter renames them.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
from typing import Any, Coroutine, List, Optional, Tuple, TypeVar

__all__ = ["VirtualTimeEventLoop", "run_virtual"]

T = TypeVar("T")


class _NoIOSelector(selectors.SelectSelector):
    """A selector for a loop without I/O: ``select()`` never polls.

    Registration works until :attr:`sealed` is set, which the loop does
    once its self-pipe is registered.
    """

    sealed = False

    def register(
        self, fileobj: Any, events: int, data: Any = None
    ) -> selectors.SelectorKey:
        if self.sealed:
            raise RuntimeError(
                f"the virtual-time loop does no I/O; cannot register "
                f"{fileobj!r}"
            )
        return super().register(fileobj, events, data)

    def select(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[selectors.SelectorKey, int]]:
        # The base loop passes timeout=None only when nothing is ready,
        # no timer is pending and the loop is not stopping.
        if timeout is None:
            raise RuntimeError(
                "virtual-time loop is idle with no timer pending: the "
                "program waits on something that can never happen"
            )
        return []


class VirtualTimeEventLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock jumps between timer deadlines."""

    def __init__(self) -> None:
        selector = _NoIOSelector()
        super().__init__(selector)
        selector.sealed = True
        self._virtual_time = 0.0
        if (
            not hasattr(self, "_scheduled")
            or not hasattr(self, "_ready")
            or not hasattr(self, "_timer_cancelled_count")
        ):
            raise RuntimeError(
                "asyncio internals changed; VirtualTimeEventLoop needs "
                "_scheduled/_ready/_timer_cancelled_count to drive "
                "virtual time"
            )

    def time(self) -> float:
        """The virtual clock, in seconds since the loop was created."""
        return self._virtual_time

    def _run_once(self) -> None:
        # With nothing ready to run, real loops block in select() until the
        # earliest timer is due.  We instead teleport the clock to that
        # deadline, so the base implementation pops the timer immediately
        # and select() is only ever called with a zero timeout.  Cancelled
        # timers at the heap top are discarded first — jumping to a dead
        # deadline would charge virtual seconds nothing actually waited for.
        # The private asyncio attributes below are absent from typeshed,
        # hence the attr-defined ignores; the __init__ guard vouches for
        # them at runtime.
        if not self._ready:  # type: ignore[attr-defined]
            scheduled = self._scheduled  # type: ignore[attr-defined]
            while scheduled and scheduled[0]._cancelled:
                handle = heapq.heappop(scheduled)
                handle._scheduled = False
                # Mirror BaseEventLoop._run_once: each cancelled handle
                # popped here is one the base loop no longer needs to
                # count toward its heap-rebuild heuristic.
                self._timer_cancelled_count = max(
                    0,
                    self._timer_cancelled_count - 1,  # type: ignore[attr-defined]
                )
            if scheduled:
                when = scheduled[0]._when
                if when > self._virtual_time:
                    self._virtual_time = when
        super()._run_once()  # type: ignore[misc]


def run_virtual(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` to completion on a fresh virtual-time loop.

    The virtual-time analogue of :func:`asyncio.run`: creates the loop,
    runs the coroutine, and closes the loop — but completes instantly in
    wall-clock terms no matter how much virtual time the coroutine sleeps.
    """
    loop = VirtualTimeEventLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
