"""Baseline protocols the paper improves upon.

The introduction positions the new conciliators against the previous state
of the art for an oblivious adversary: ``O(log n)`` expected individual
steps (Aumann's protocol, and the CIL-based conciliator of Aspnes'12 [5]).
:class:`~repro.baselines.doubling_cil.DoublingCILConciliator` reproduces
that ``O(log n)`` behaviour, giving experiment E8 its comparison curve; the
naive one-shot conciliator is the floor that shows why sifting rounds are
needed at all.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.baselines.doubling_cil": ("DoublingCILConciliator",),
    "repro.baselines.naive_conciliator": ("NaiveConciliator",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.baselines.doubling_cil import (
        DoublingCILConciliator as DoublingCILConciliator,
    )
    from repro.baselines.naive_conciliator import (
        NaiveConciliator as NaiveConciliator,
    )
