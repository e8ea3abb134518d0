"""The paper's predicted quantities, as executable formulas.

Every experiment in EXPERIMENTS.md prints a "paper" column next to the
measured one; this module is where those columns come from.  Nothing here
runs a simulation — these are the closed forms proved in the paper (and the
introduction's comparison curves).
"""

from __future__ import annotations

import math
from typing import List

from typing import Any, Dict

from repro.core.probabilities import (
    SIFT_TAIL_FACTOR,
    iterate_snapshot_f,
    sift_x,
)
from repro.core.rounds import (
    sifting_rounds,
    sifting_switch_round,
    snapshot_rounds,
)
from repro.errors import ConfigurationError

__all__ = [
    "harmonic",
    "snapshot_decay_bound",
    "sifting_decay_bound",
    "snapshot_step_count",
    "sifting_step_count",
    "doubling_cil_step_bound",
    "cil_total_steps_bound",
    "cil_inner_rounds",
    "cil_individual_step_bound",
    "ATTRIBUTION_ALGORITHMS",
    "predicted_attribution",
]


def harmonic(m: int) -> float:
    """The harmonic number ``H_m``: the exact per-round survivor bound in
    Lemma 1's proof (``E[Y_{i+1} | Y_i = m] <= H_m``)."""
    if m < 0:
        raise ConfigurationError(f"harmonic number needs m >= 0, got {m}")
    return sum(1.0 / k for k in range(1, m + 1))


def snapshot_decay_bound(n: int, rounds: int) -> List[float]:
    """Theorem 1's excess-persona bound per round: ``E[X_i] <= f^(i)(n-1)``.

    Entry ``i`` (0-based) is the bound after round ``i+1``.  The iteration
    starts from ``X_0 = n - 1`` (id-consensus worst case).
    """
    return [iterate_snapshot_f(n - 1, i + 1) for i in range(rounds)]


def sifting_decay_bound(n: int, rounds: int) -> List[float]:
    """Lemmas 3 and 4: ``E[X_i] <= x_i`` up to the switch, then ``*(3/4)``.

    Entry ``i`` (0-based) is the bound after round ``i+1``.
    """
    switch = sifting_switch_round(n)
    bounds: List[float] = []
    for round_number in range(1, rounds + 1):
        if round_number <= switch:
            bounds.append(sift_x(round_number, n))
        else:
            at_switch = sift_x(switch, n) if switch > 0 else float(n - 1)
            bounds.append(at_switch * SIFT_TAIL_FACTOR ** (round_number - switch))
    return bounds


def snapshot_step_count(n: int, epsilon: float) -> int:
    """Exact individual steps of Algorithm 1: 2 per round (update + scan)."""
    return 2 * snapshot_rounds(n, epsilon)


def sifting_step_count(n: int, epsilon: float) -> int:
    """Exact individual steps of Algorithm 2: 1 per round."""
    return sifting_rounds(n, epsilon)


def doubling_cil_step_bound(n: int) -> int:
    """Worst-case individual steps of the O(log n) baseline conciliator."""
    return 2 * max(1, math.ceil(math.log2(2 * n)) + 1)


def cil_total_steps_bound(n: int) -> float:
    """Theorem 3's expected-total-steps budget for the main loop.

    Each loop iteration independently writes ``proposal`` with probability
    ``1/(4n)``, so the expected number of iterations across all processes
    before the first write is at most ``4n``, each costing at most 2 steps
    (``8n``).  After the first write, every process finishes its current
    iteration and exits at its next read (at most one more iteration, ``2n``
    total), and the combine stage costs at most 7 steps per process
    (``7n``).  Explicit budget: ``8n + 2n + 7n = 17n``; we report ``20n``
    in EXPERIMENTS.md to absorb the variance of the geometric first-write
    time in finite samples.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return 20.0 * n


def cil_inner_rounds(n: int) -> int:
    """Rounds of Algorithm 3's embedded sifter, run with ``eps = 1/4``.

    Theorem 3 fixes the inner conciliator's disagreement budget at 1/4
    (``INNER_EPSILON`` in :mod:`repro.core.cil_embedded`), so the inner
    round count is ``sifting_rounds(n, 1/4)`` regardless of any outer
    epsilon.
    """
    return sifting_rounds(n, 0.25)


def cil_individual_step_bound(n: int) -> int:
    """Worst-case individual steps of Algorithm 3's full program.

    An independent closed form for
    :meth:`repro.core.cil_embedded.CILEmbeddedConciliator.step_bound`:
    each main-loop iteration costs one proposal read plus one inner-sifter
    step (``2 * inner``), plus three loop-exit operations, plus the combine
    stage — a binary adopt-commit (``1 + 2 + 2 = 5`` steps) bracketed by
    one ``out[side]`` write and one ``out[chosen]`` read.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    binary_ac_steps = 5
    return 2 * cil_inner_rounds(n) + 3 + binary_ac_steps + 2


#: Algorithm families the attribution report has closed-form predictions for.
ATTRIBUTION_ALGORITHMS = ("snapshot", "sifting", "cil-embedded")


def predicted_attribution(
    algorithm: str, n: int, epsilon: float = 0.5
) -> Dict[str, Any]:
    """Closed-form per-round predictions for one algorithm family.

    Returns a plain dict consumed by
    :func:`repro.obs.analyze.attribute_steps`:

    - ``rounds``: predicted round count (exact for Algorithms 1-2; for
      Algorithm 3 the inner sifter's round count, an upper bound on how
      many inner rounds any process executes before exiting via the CIL
      proposal);
    - ``steps_per_round``: shared-memory operations per round per process
      (2 for Algorithm 1's update+scan, 1 for Algorithm 2's single
      read-or-write, 1 for Algorithm 3's inner sifter);
    - ``individual_steps``: per-process step prediction over the whole
      protocol (exact for Algorithms 1-2, the worst-case bound for 3);
    - ``relation``: ``"exact"`` when observed values must equal the
      prediction on a completed run, ``"upper-bound"`` when observed
      values must not exceed it.

    For Algorithm 3 the ``epsilon`` argument is ignored: Theorem 3 pins
    the inner conciliator at ``eps = 1/4``, and the returned ``epsilon``
    field records that effective value.
    """
    if algorithm == "snapshot":
        rounds = snapshot_rounds(n, epsilon)
        return {
            "algorithm": algorithm, "n": n, "epsilon": epsilon,
            "rounds": rounds, "steps_per_round": 2,
            "individual_steps": 2 * rounds, "relation": "exact",
        }
    if algorithm == "sifting":
        rounds = sifting_rounds(n, epsilon)
        return {
            "algorithm": algorithm, "n": n, "epsilon": epsilon,
            "rounds": rounds, "steps_per_round": 1,
            "individual_steps": rounds, "relation": "exact",
        }
    if algorithm == "cil-embedded":
        rounds = cil_inner_rounds(n)
        return {
            "algorithm": algorithm, "n": n, "epsilon": 0.25,
            "rounds": rounds, "steps_per_round": 1,
            "individual_steps": cil_individual_step_bound(n),
            "relation": "upper-bound",
        }
    raise ConfigurationError(
        f"no attribution prediction for algorithm {algorithm!r}; "
        f"choose from {ATTRIBUTION_ALGORITHMS}"
    )
