"""Retry backoff policy for the service layer's per-session worker retries.

Retrying a failed unit of work immediately is how transient faults become
correlated storms: every client that saw the same blip retries at the same
instant.  The standard remedy (AWS architecture blog, "Exponential Backoff
and Jitter") is *capped full-jitter exponential backoff* — the ``k``-th
retry sleeps a uniform draw from ``[0, min(max_delay, base * 2**k)]`` —
which decorrelates retriers while keeping the expected delay growing
geometrically until the cap.

:class:`BackoffPolicy` is a frozen value object held by
:class:`~repro.service.service.ServiceConfig`.  The virtual-time loadtest
must be a pure function of its master seed, so the jitter draw never
touches global randomness: callers pass an explicit ``random.Random``
(usually built with :meth:`BackoffPolicy.rng` from a seed-tree label).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.runtime.rng import derive_seed

__all__ = ["BackoffPolicy"]

#: Geometric growth of the delay ceiling per attempt.
_MULTIPLIER = 2.0


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with full jitter.

    Attributes:
        base: delay ceiling for attempt 0, in seconds; it doubles per
            attempt.
        max_delay: hard cap on the delay ceiling, in seconds.
    """

    base: float = 0.25
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        # ``not x >= 0`` also rejects NaN, which would otherwise slip
        # through and turn every ceiling or jitter draw into NaN.
        if not self.base >= 0:
            raise ConfigurationError(f"base must be >= 0, got {self.base}")
        if not self.max_delay >= 0:
            raise ConfigurationError(
                f"max_delay must be >= 0, got {self.max_delay}"
            )

    def cap(self, attempt: int) -> float:
        """The delay ceiling for the given 0-based retry attempt."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        return min(self.max_delay, self.base * _MULTIPLIER ** attempt)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The seconds to sleep before the given 0-based retry attempt:
        ``rng.uniform(0, cap(attempt))``, drawn from the caller's ``rng``
        so the draw stays deterministic (no draw when the cap is 0)."""
        cap = self.cap(attempt)
        if cap == 0:
            return cap
        return rng.uniform(0.0, cap)

    @staticmethod
    def rng(master_seed: int, *labels: str) -> random.Random:
        """A deterministic jitter stream for one retry context.

        A thin wrapper over :func:`repro.runtime.rng.derive_seed` so the
        jitter stream is independent of every other stream derived from
        the same master seed (the labels namespace it).
        """
        return random.Random(derive_seed(master_seed, "backoff", *labels))
