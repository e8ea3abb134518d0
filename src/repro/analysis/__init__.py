"""Analysis: the paper's predicted curves, statistics, and sweep runners."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.experiments": (
        "ConciliatorTrialStats", "ConsensusTrialStats",
        "merge_conciliator_stats", "merge_consensus_stats",
        "run_conciliator_trials", "run_consensus_trials", "decay_series",
        "trial_seed_tree",
    ),
    "repro.analysis.stats": (
        "SampleSummary", "mean", "sample_std", "summarize", "wilson_interval",
    ),
    "repro.analysis.tables": ("render_table", "format_float"),
    "repro.analysis.theory": (
        "harmonic", "snapshot_decay_bound", "sifting_decay_bound",
        "snapshot_step_count", "sifting_step_count", "doubling_cil_step_bound",
        "cil_total_steps_bound",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.analysis.experiments import (
        ConciliatorTrialStats as ConciliatorTrialStats,
        ConsensusTrialStats as ConsensusTrialStats,
        decay_series as decay_series,
        merge_conciliator_stats as merge_conciliator_stats,
        merge_consensus_stats as merge_consensus_stats,
        run_conciliator_trials as run_conciliator_trials,
        run_consensus_trials as run_consensus_trials,
        trial_seed_tree as trial_seed_tree,
    )
    from repro.analysis.stats import (
        SampleSummary as SampleSummary,
        mean as mean,
        sample_std as sample_std,
        summarize as summarize,
        wilson_interval as wilson_interval,
    )
    from repro.analysis.tables import (
        format_float as format_float,
        render_table as render_table,
    )
    from repro.analysis.theory import (
        cil_total_steps_bound as cil_total_steps_bound,
        doubling_cil_step_bound as doubling_cil_step_bound,
        harmonic as harmonic,
        sifting_decay_bound as sifting_decay_bound,
        sifting_step_count as sifting_step_count,
        snapshot_decay_bound as snapshot_decay_bound,
        snapshot_step_count as snapshot_step_count,
    )
