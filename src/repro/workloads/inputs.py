"""Input assignments for consensus/conciliator workloads.

The paper's hardest case is *id-consensus*: every process proposes a
distinct value, so ``X_0 = n - 1`` excess personae enter round one.  The
other assignments cover the spectrum the corollaries discuss (binary
consensus, m-valued consensus, skewed mixes) plus the unanimous case used
to test convergence and validity boundaries.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.errors import ConfigurationError

__all__ = [
    "INPUT_WORKLOADS",
    "all_distinct_inputs",
    "binary_inputs",
    "k_valued_inputs",
    "skewed_inputs",
    "unanimous_inputs",
    "make_input",
    "standard_input_gallery",
]

#: The named assignments of :func:`standard_input_gallery`, in its order.
INPUT_WORKLOADS = ("distinct", "binary", "four-valued", "skewed", "unanimous")


def _check_n(n: int) -> None:
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")


def all_distinct_inputs(n: int) -> List[int]:
    """Id-consensus: process ``i`` proposes ``i`` (worst case, m = n)."""
    _check_n(n)
    return list(range(n))


def binary_inputs(n: int, split: float = 0.5, seed: int = 0) -> List[int]:
    """Binary consensus: each process proposes 1 with probability ``split``."""
    _check_n(n)
    if not 0.0 <= split <= 1.0:
        raise ConfigurationError(f"split must be in [0, 1], got {split}")
    rng = random.Random(seed)
    return [1 if rng.random() < split else 0 for _ in range(n)]


def k_valued_inputs(n: int, k: int, seed: int = 0) -> List[int]:
    """m-valued consensus: uniform proposals from ``range(k)``."""
    _check_n(n)
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    rng = random.Random(seed)
    return [rng.randrange(k) for _ in range(n)]


def skewed_inputs(n: int, majority_value: Any = 0, minority_count: int = 1) -> List[Any]:
    """All processes propose ``majority_value`` except a few dissenters."""
    _check_n(n)
    if not 0 <= minority_count <= n:
        raise ConfigurationError(
            f"minority_count must be in [0, {n}], got {minority_count}"
        )
    inputs: List[Any] = [majority_value] * n
    for index in range(minority_count):
        inputs[index] = f"dissent-{index}"
    return inputs


def unanimous_inputs(n: int, value: Any = 0) -> List[Any]:
    """Everyone proposes the same value (convergence boundary case)."""
    _check_n(n)
    return [value] * n


def make_input(name: str, n: int, seed: int = 0) -> List[Any]:
    """The assignment ``standard_input_gallery(n, seed)[name]``, built alone."""
    if name == "distinct":
        return all_distinct_inputs(n)
    if name == "binary":
        return binary_inputs(n, seed=seed)
    if name == "four-valued":
        return k_valued_inputs(n, min(4, n), seed=seed)
    if name == "skewed":
        return skewed_inputs(n, minority_count=min(2, n))
    if name == "unanimous":
        return unanimous_inputs(n)
    raise ConfigurationError(
        f"unknown workload {name!r}; choose from {INPUT_WORKLOADS}"
    )


def standard_input_gallery(n: int, seed: int = 0) -> Dict[str, List[Any]]:
    """The named input assignments used across tests and benchmarks."""
    return {name: make_input(name, n, seed) for name in INPUT_WORKLOADS}
