"""The paper's contribution: conciliators and consensus built from them."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.cil_embedded": ("CILEmbeddedConciliator", "INNER_EPSILON"),
    "repro.core.compose": ("ChainedConciliator",),
    "repro.core.conciliator": ("Conciliator", "run_conciliator"),
    "repro.core.consensus": (
        "ConsensusProtocol", "snapshot_consensus", "register_consensus",
        "run_consensus",
    ),
    "repro.core.emulated_conciliator": ("EmulatedSnapshotConciliator",),
    "repro.core.indirect_conciliator": ("IndirectSnapshotConciliator",),
    "repro.core.persona": ("Persona",),
    "repro.core.probabilities": (
        "sift_x", "sift_p", "sift_p_schedule", "paper_sift_p", "snapshot_f",
        "iterate_snapshot_f", "SIFT_TAIL_FACTOR",
    ),
    "repro.core.rounds": (
        "log_star", "ceil_log2", "ceil_log_log", "snapshot_rounds",
        "snapshot_priority_range", "sifting_rounds", "sifting_switch_round",
        "cil_write_probability",
    ),
    "repro.core.sifting_conciliator": ("SiftingConciliator",),
    "repro.core.snapshot_conciliator": ("SnapshotConciliator",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.core.cil_embedded import (
        INNER_EPSILON as INNER_EPSILON,
        CILEmbeddedConciliator as CILEmbeddedConciliator,
    )
    from repro.core.compose import ChainedConciliator as ChainedConciliator
    from repro.core.conciliator import (
        Conciliator as Conciliator,
        run_conciliator as run_conciliator,
    )
    from repro.core.consensus import (
        ConsensusProtocol as ConsensusProtocol,
        register_consensus as register_consensus,
        run_consensus as run_consensus,
        snapshot_consensus as snapshot_consensus,
    )
    from repro.core.emulated_conciliator import (
        EmulatedSnapshotConciliator as EmulatedSnapshotConciliator,
    )
    from repro.core.indirect_conciliator import (
        IndirectSnapshotConciliator as IndirectSnapshotConciliator,
    )
    from repro.core.persona import Persona as Persona
    from repro.core.probabilities import (
        SIFT_TAIL_FACTOR as SIFT_TAIL_FACTOR,
        iterate_snapshot_f as iterate_snapshot_f,
        paper_sift_p as paper_sift_p,
        sift_p as sift_p,
        sift_p_schedule as sift_p_schedule,
        sift_x as sift_x,
        snapshot_f as snapshot_f,
    )
    from repro.core.rounds import (
        ceil_log2 as ceil_log2,
        ceil_log_log as ceil_log_log,
        cil_write_probability as cil_write_probability,
        log_star as log_star,
        sifting_rounds as sifting_rounds,
        sifting_switch_round as sifting_switch_round,
        snapshot_priority_range as snapshot_priority_range,
        snapshot_rounds as snapshot_rounds,
    )
    from repro.core.sifting_conciliator import (
        SiftingConciliator as SiftingConciliator,
    )
    from repro.core.snapshot_conciliator import (
        SnapshotConciliator as SnapshotConciliator,
    )
