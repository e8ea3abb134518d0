"""Workload generators: input assignments and adversary schedule families."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.workloads.inputs": (
        "all_distinct_inputs", "binary_inputs", "k_valued_inputs",
        "skewed_inputs", "unanimous_inputs", "standard_input_gallery",
    ),
    "repro.workloads.schedules": ("schedule_gallery", "make_schedule"),
    "repro.workloads.search": (
        "SearchResult", "evaluate_schedule", "search_worst_schedule",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.workloads.inputs import (
        all_distinct_inputs as all_distinct_inputs,
        binary_inputs as binary_inputs,
        k_valued_inputs as k_valued_inputs,
        skewed_inputs as skewed_inputs,
        standard_input_gallery as standard_input_gallery,
        unanimous_inputs as unanimous_inputs,
    )
    from repro.workloads.schedules import (
        make_schedule as make_schedule,
        schedule_gallery as schedule_gallery,
    )
    from repro.workloads.search import (
        SearchResult as SearchResult,
        evaluate_schedule as evaluate_schedule,
        search_worst_schedule as search_worst_schedule,
    )
