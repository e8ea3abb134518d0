"""Test-and-set: the paper's sibling problem (Section 5 discussion).

The conclusions compare the new conciliators with oblivious-adversary
test-and-set: Algorithm 2 "follows both the structure and the
O(log log n) complexity" of the Alistarh-Aspnes test-and-set [1], whose
*sift* protocol drops losers instead of adopting personae.  This package
implements that protocol so the structural kinship can be measured
(experiment E14):

- :class:`~repro.tas.sifting_tas.SiftingTestAndSet` — the [1]-style sifter
  (read a non-empty round register -> lose immediately) followed by a
  backup among the expected-O(1) survivors.  The backup here is this
  library's own register-model consensus on process ids ([1] uses the
  RatRace object; DESIGN.md records the substitution).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.tas.sifting_tas": ("SiftingTestAndSet",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.tas.sifting_tas import SiftingTestAndSet as SiftingTestAndSet
