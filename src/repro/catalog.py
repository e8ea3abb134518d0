"""The algorithm catalog: one record per conciliator, read by every subsystem.

The CLI's ``--algorithm`` choices, the service, the fuzzer's conciliator
stacks and model ladder, the explain layer's attribution, the probe, the
growth curves and the bench cases all resolve algorithms here, so adding an
algorithm means its protocol module plus one entry in :data:`CATALOG`.
:data:`CATALOG`'s order is the fuzz registry's stack order, which the
seeded stack draw (and with it the committed corpus) depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analysis.theory import sifting_decay_bound, snapshot_decay_bound
from repro.baselines import DoublingCILConciliator, NaiveConciliator
from repro.core.cil_embedded import INNER_EPSILON, CILEmbeddedConciliator
from repro.core.compose import ChainedConciliator
from repro.core.conciliator import Conciliator
from repro.core.emulated_conciliator import EmulatedSnapshotConciliator
from repro.core.indirect_conciliator import IndirectSnapshotConciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.errors import ConfigurationError

__all__ = ["CATALOG", "AlgorithmRecord", "get", "names"]


@dataclass(frozen=True)
class AlgorithmRecord:
    """One conciliator; an unset field leaves it out of the subsystem that
    reads that field."""

    name: str
    #: Builds a fresh conciliator for ``n`` processes (often the class).
    factory: Callable[[int], Conciliator]
    #: Offered by the CLI (``conciliator``, ``loadtest``) and the service.
    exposed: bool = False
    #: The :mod:`repro.runtime.vectorized` kernel its instances map onto,
    #: by name: this module imports neither NumPy nor that backend.
    kernel: Optional[str] = None
    #: ``(algorithm, epsilon)`` for
    #: :func:`repro.analysis.theory.predicted_attribution`.
    attribution: Optional[Tuple[str, float]] = None
    #: Asymptotic individual-step class labelling its growth curve.
    growth_class: Optional[str] = None
    #: The paper's per-round survivor bound ``(n, rounds) -> bounds``; also
    #: admits the algorithm to ``decay``, ``search`` and the probe.
    decay_bound: Optional[Callable[[int, int], List[float]]] = None


CATALOG: Tuple[AlgorithmRecord, ...] = (
    AlgorithmRecord(
        "snapshot", SnapshotConciliator,
        exposed=True, kernel="snapshot", attribution=("snapshot", 0.5),
        growth_class="O(log* n)", decay_bound=snapshot_decay_bound,
    ),
    AlgorithmRecord(
        "snapshot-maxreg",
        lambda n: SnapshotConciliator(n, use_max_registers=True),
        exposed=True, kernel="snapshot", attribution=("snapshot", 0.5),
    ),
    AlgorithmRecord("indirect-snapshot", IndirectSnapshotConciliator),
    AlgorithmRecord("emulated-snapshot", EmulatedSnapshotConciliator),
    AlgorithmRecord(
        "sifting", SiftingConciliator,
        exposed=True, kernel="sifting", attribution=("sifting", 0.5),
        growth_class="O(log log n)", decay_bound=sifting_decay_bound,
    ),
    AlgorithmRecord(
        "sifting-anonymous", lambda n: SiftingConciliator(n, anonymous=True),
        attribution=("sifting", 0.5),
    ),
    AlgorithmRecord(
        "cil-embedded", CILEmbeddedConciliator,
        exposed=True, attribution=("cil-embedded", INNER_EPSILON),
    ),
    AlgorithmRecord(
        "doubling-cil", DoublingCILConciliator,
        exposed=True, kernel="cil", growth_class="O(log n)",
    ),
    AlgorithmRecord("naive", NaiveConciliator),
    AlgorithmRecord("chained-sift-snap", lambda n: ChainedConciliator(
        [
            SiftingConciliator(n, name="chained.sift"),
            SnapshotConciliator(n, name="chained.snap"),
        ],
        name="chained-sift-snap",
    )),
)

_BY_NAME = {record.name: record for record in CATALOG}


def get(name: str) -> AlgorithmRecord:
    """The record named ``name``; unknown names raise ConfigurationError."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from {names()}"
        ) from None


def names(having: Optional[str] = None) -> Tuple[str, ...]:
    """Record names in catalog order, optionally only those whose field
    ``having`` (e.g. ``"exposed"``, ``"kernel"``, ``"decay_bound"``) is set."""
    return tuple(
        record.name for record in CATALOG
        if having is None or getattr(record, having)
    )
