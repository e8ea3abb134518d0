"""Adopt-commit objects.

An adopt-commit object (Section 1.2) detects agreement but does not create
it: ``AdoptCommit(v)`` returns ``(commit, v')`` or ``(adopt, v')`` subject to
termination, validity, **convergence** (identical inputs all commit) and
**coherence** (if anyone commits ``v``, everyone returns ``v``).

Implementations:

- :class:`~repro.adoptcommit.snapshot_ac.SnapshotAdoptCommit` — Gafni-style
  two-phase construction on two snapshot objects; 4 steps (O(1)), any
  hashable value domain.  This is the object Corollary 1 alternates with
  Algorithm 1.
- :class:`~repro.adoptcommit.flag_ac.FlagAdoptCommit` — register-model
  construction from digit-indexed flag registers plus a proposal register;
  ``O(log m)`` steps for ``m`` possible values (``O(1)`` for binary values,
  which is what Algorithm 3's combine stage uses).  The paper cites the
  Aspnes–Ellen ``O(log m / log log m)`` object [9]; ours is within a
  ``log log m`` factor, a substitution documented in DESIGN.md.
- :class:`~repro.adoptcommit.collect_ac.CollectAdoptCommit` — the same
  two-phase construction with plain register collects; ``O(n)`` steps,
  included as the no-snapshot reference point.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.adoptcommit.base": (
        "ADOPT", "COMMIT", "AdoptCommitObject", "AdoptCommitResult",
    ),
    "repro.adoptcommit.collect_ac": ("CollectAdoptCommit",),
    "repro.adoptcommit.encoders": (
        "ValueEncoder", "IntEncoder", "DomainEncoder",
    ),
    "repro.adoptcommit.flag_ac": ("FlagAdoptCommit", "BinaryAdoptCommit"),
    "repro.adoptcommit.snapshot_ac": ("SnapshotAdoptCommit",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.adoptcommit.base import (
        ADOPT as ADOPT,
        COMMIT as COMMIT,
        AdoptCommitObject as AdoptCommitObject,
        AdoptCommitResult as AdoptCommitResult,
    )
    from repro.adoptcommit.collect_ac import (
        CollectAdoptCommit as CollectAdoptCommit,
    )
    from repro.adoptcommit.encoders import (
        DomainEncoder as DomainEncoder,
        IntEncoder as IntEncoder,
        ValueEncoder as ValueEncoder,
    )
    from repro.adoptcommit.flag_ac import (
        BinaryAdoptCommit as BinaryAdoptCommit,
        FlagAdoptCommit as FlagAdoptCommit,
    )
    from repro.adoptcommit.snapshot_ac import (
        SnapshotAdoptCommit as SnapshotAdoptCommit,
    )
