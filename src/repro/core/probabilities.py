"""Probability schedules and recurrences from Sections 2 and 3.

Sifting schedule (Section 3).  Lemma 2 bounds the expected number of excess
personae by ``E[X_{i+1} | X_i] <= min(p_{i+1} X_i + 1/p_{i+1},
(1 - p_{i+1} + p_{i+1}^2) X_i)``.  The first bound is minimized by
``p_{i+1} = 1/sqrt(x_i)``, which drives the recurrence

    x_0 = n - 1,   x_{i+1} = 2 sqrt(x_i)

with closed form ``x_i = 2^(2 - 2^(1-i)) (n-1)^(2^-i)`` (equation (2)).

Note on equation (3): the paper prints ``p_i = 2^(1 - 2^(-i+1))
(n-1)^(-2^-i)``, but substituting (2) into ``p_{i+1} = 1/sqrt(x_i)`` gives
``p_i = 2^(-1 + 2^(1-i)) (n-1)^(-2^-i)`` — the sign of the power-of-two
exponent is flipped.  The two agree at ``i = 1`` and differ by a factor of at
most 4 afterwards; only the self-consistent version satisfies the recurrence
the proof of Lemma 3 uses, so we implement that one (clamped to (0, 1]).
Experiment E10 checks empirically that either choice sifts at the claimed
``O(sqrt(x))`` rate.

Snapshot recurrence (Section 2).  Lemma 1 gives
``E[X_{i+1} | X_i] <= f(X_i)`` with ``f(x) = min(ln(x+1), x/2)``; Theorem 1
iterates ``f`` and uses ``f(x) <= log2 x`` for ``x >= 2``.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ConfigurationError
from repro.core.rounds import sifting_switch_round

__all__ = [
    "sift_x",
    "sift_p",
    "sift_p_schedule",
    "paper_sift_p",
    "snapshot_f",
    "iterate_snapshot_f",
]

#: Per-round multiplicative bound after the switch to p = 1/2 (Lemma 4):
#: ``1 - p + p^2`` at ``p = 1/2``.
SIFT_TAIL_FACTOR = 0.75

__all__.append("SIFT_TAIL_FACTOR")


def sift_x(i: int, n: int) -> float:
    """Closed-form bound ``x_i`` from equation (2): ``E[X_i] <= x_i``.

    ``x_0 = n - 1`` and ``x_i = 2^(2 - 2^(1-i)) (n-1)^(2^-i)`` for ``i >= 1``.
    """
    if i < 0:
        raise ConfigurationError(f"round index must be >= 0, got {i}")
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    return 2.0 ** (2.0 - 2.0 ** (1 - i)) * (n - 1) ** (2.0 ** -i)


def sift_p(i: int, n: int) -> float:
    """Write probability ``p_i`` for sifting round ``i`` (1-based).

    For ``i <= ceil(log2 log2 n)`` this is the tuned value
    ``p_i = 1/sqrt(x_{i-1})`` (the minimizer in Lemma 2's first bound, the
    self-consistent form of equation (3)); afterwards it is ``1/2``, the
    minimizer of the second bound's coefficient ``1 - p + p^2`` (Lemma 4).
    """
    if i < 1:
        raise ConfigurationError(f"sifting rounds are 1-based, got i={i}")
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if i > sifting_switch_round(n):
        return 0.5
    x_prev = sift_x(i - 1, n)
    if x_prev <= 1.0:
        return 1.0
    return min(1.0, 1.0 / math.sqrt(x_prev))


def paper_sift_p(i: int, n: int) -> float:
    """Equation (3) exactly as printed: ``2^(1-2^(1-i)) (n-1)^(-2^-i)``.

    Kept for the E10 ablation; see the module docstring for why the
    self-consistent :func:`sift_p` is the default.  Clamped to (0, 1].
    """
    if i < 1:
        raise ConfigurationError(f"sifting rounds are 1-based, got i={i}")
    if n < 2:
        return 1.0
    value = 2.0 ** (1.0 - 2.0 ** (1 - i)) * (n - 1) ** (-(2.0 ** -i))
    return min(1.0, value)


def sift_p_schedule(n: int, rounds: int) -> List[float]:
    """The full per-round write-probability schedule for Algorithm 2."""
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    return [sift_p(i, n) for i in range(1, rounds + 1)]


def snapshot_f(x: float) -> float:
    """Lemma 1's contraction ``f(x) = min(ln(x+1), x/2)``."""
    if x < 0:
        raise ConfigurationError(f"f is defined on [0, inf), got {x}")
    return min(math.log(x + 1.0), x / 2.0)


def iterate_snapshot_f(x: float, iterations: int) -> float:
    """``f`` composed ``iterations`` times, the bound ``E[X_i] <= f^(i)(n)``."""
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    value = float(x)
    for _ in range(iterations):
        value = snapshot_f(value)
    return value

