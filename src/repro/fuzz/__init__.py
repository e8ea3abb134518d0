"""Chaos fuzzing for the consensus substrate.

``repro.fuzz`` randomly composes scenarios — protocol stack, schedule
family or adaptive adversary, fault plan, process count, seeds — runs each
under the full invariant-monitor suite plus trace-semantics oracles,
enforces wall-clock/step budgets, shrinks any violation to a minimal
reproducer, and maintains a versioned JSON regression corpus replayed by
the tier-1 test suite.

The stack registry (:mod:`repro.fuzz.stacks`) is complete as soon as it
is imported, whichever module imports it first: it registers every honest
protocol stack and then loads the planted calibration bugs
(:mod:`repro.fuzz.planted`), which are flagged so honest campaigns never
draw them.  This package only re-exports, lazily.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.fuzz.campaign": ("CampaignReport", "Finding", "run_fuzz_campaign"),
    "repro.fuzz.corpus": (
        "CorpusCase", "ReplayReport", "case_filename", "load_case",
        "load_corpus", "replay_case", "save_case",
    ),
    "repro.fuzz.explain": (
        "CaseExplanation", "explain_case", "explain_scenario",
    ),
    "repro.fuzz.scenario": (
        "WORKLOADS", "FuzzConfig", "Scenario", "ScenarioOutcome",
        "ViolationRecord", "generate_scenario", "make_inputs", "run_scenario",
    ),
    "repro.fuzz.shrink": ("ShrinkResult", "shrink_scenario"),
    "repro.fuzz.stacks": (
        "BuiltStack", "StackSpec", "get_stack", "register_stack",
        "stack_names",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.fuzz.campaign import (
        CampaignReport as CampaignReport,
        Finding as Finding,
        run_fuzz_campaign as run_fuzz_campaign,
    )
    from repro.fuzz.corpus import (
        CorpusCase as CorpusCase,
        ReplayReport as ReplayReport,
        case_filename as case_filename,
        load_case as load_case,
        load_corpus as load_corpus,
        replay_case as replay_case,
        save_case as save_case,
    )
    from repro.fuzz.explain import (
        CaseExplanation as CaseExplanation,
        explain_case as explain_case,
        explain_scenario as explain_scenario,
    )
    from repro.fuzz.scenario import (
        WORKLOADS as WORKLOADS,
        FuzzConfig as FuzzConfig,
        Scenario as Scenario,
        ScenarioOutcome as ScenarioOutcome,
        ViolationRecord as ViolationRecord,
        generate_scenario as generate_scenario,
        make_inputs as make_inputs,
        run_scenario as run_scenario,
    )
    from repro.fuzz.shrink import (
        ShrinkResult as ShrinkResult,
        shrink_scenario as shrink_scenario,
    )
    from repro.fuzz.stacks import (
        BuiltStack as BuiltStack,
        StackSpec as StackSpec,
        get_stack as get_stack,
        register_stack as register_stack,
        stack_names as stack_names,
    )
