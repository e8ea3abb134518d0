"""Wall-clock deadlines and per-run budget hooks.

Adversarial campaigns (the chaos fuzzer, the worst-schedule search) explore
scenario spaces that contain pathological members on purpose.  A campaign
must never hang on one of them: every unit of work runs under a *budget*,
and exhausting a budget is an ordinary, recordable outcome
(:class:`~repro.errors.BudgetExceededError`), not a protocol verdict.

Two budget dimensions are enforced:

- **steps** — deterministic, part of a scenario's identity, enforced by the
  simulator's ``step_limit`` and the
  :class:`~repro.runtime.monitors.WaitFreedomWatchdog`; exceeding it *is*
  protocol evidence (a termination violation);
- **wall clock** — a machine-dependent safety valve enforced by
  :class:`Deadline` / :class:`WallClockBudgetHook`; exceeding it says
  nothing about the protocol, only that this host gave up.

Keeping the two separate is what lets seeded campaigns stay deterministic:
the oracle verdicts depend only on step budgets, while wall-clock deadlines
merely bound how long a host will wait for them.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.errors import BudgetExceededError, ConfigurationError
from repro.runtime.hooks import StepHook
from repro.runtime.operations import Operation

__all__ = ["Deadline", "WallClockBudgetHook"]


class Deadline:
    """A wall-clock budget measured from construction time.

    ``Deadline(None)`` never expires, so callers can thread one object
    through unconditionally; a budget that is not finite (NaN, infinity)
    would never expire either, so it is refused rather than accepted as a
    silent ``None``.  ``remaining()`` is clamped at 0.
    """

    def __init__(self, seconds: Optional[float], *, clock=time.monotonic):
        if seconds is not None and not (
            math.isfinite(seconds) and seconds > 0
        ):
            raise ConfigurationError(
                f"deadline must be finite and positive (or None), "
                f"got {seconds}"
            )
        self.seconds = seconds
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._start

    def remaining(self) -> Optional[float]:
        """Seconds left, clamped at 0; ``None`` for an unbounded deadline."""
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        """True once the budget has run out."""
        return self.seconds is not None and self.elapsed() >= self.seconds

    def check(self, what: str = "work") -> None:
        """Raise :class:`BudgetExceededError` if the budget has run out."""
        if self.expired():
            raise BudgetExceededError(
                f"{what} exceeded its wall-clock budget of "
                f"{self.seconds:.3g}s (elapsed {self.elapsed():.3g}s)"
            )


class WallClockBudgetHook(StepHook):
    """A :class:`StepHook` that aborts a run when its deadline expires.

    The clock is only consulted every ``check_every`` charged steps, so the
    hook costs almost nothing on the hot path.  The raise happens in
    ``before_step``, i.e. *between* atomic operations, so the aborted run
    never leaves a shared object half-applied.
    """

    def __init__(self, deadline: Deadline, *, check_every: int = 256):
        if check_every < 1:
            raise ConfigurationError(
                f"check_every must be >= 1, got {check_every}"
            )
        self.deadline = deadline
        self.check_every = check_every
        self._since_check = 0

    def before_step(
        self,
        pid: int,
        process_steps: int,
        global_steps: int,
        operation: Optional[Operation],
    ) -> Optional[str]:
        self._since_check += 1
        if self._since_check >= self.check_every:
            self._since_check = 0
            self.deadline.check("simulated run")
        return None
