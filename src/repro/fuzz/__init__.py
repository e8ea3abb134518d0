"""Chaos fuzzing for the consensus substrate.

``repro.fuzz`` randomly composes scenarios — protocol stack, schedule
family or adaptive adversary, fault plan, process count, seeds — runs each
under the full invariant-monitor suite plus trace-semantics oracles,
enforces wall-clock/step budgets, shrinks any violation to a minimal
reproducer, and maintains a versioned JSON regression corpus replayed by
the tier-1 test suite.

Importing this package registers every honest protocol stack *and* the
planted calibration bugs (:mod:`repro.fuzz.planted`); the planted stacks
are flagged so honest campaigns never draw them.
"""

from repro.fuzz import planted as _planted  # noqa: F401 - registers planted stacks
from repro.fuzz.campaign import CampaignReport, Finding, run_fuzz_campaign
from repro.fuzz.corpus import (
    CorpusCase,
    ReplayReport,
    case_filename,
    load_case,
    load_corpus,
    replay_case,
    save_case,
)
from repro.fuzz.explain import (
    CaseExplanation,
    explain_case,
    explain_scenario,
)
from repro.fuzz.scenario import (
    WORKLOADS,
    FuzzConfig,
    Scenario,
    ScenarioOutcome,
    ViolationRecord,
    generate_scenario,
    make_inputs,
    run_scenario,
)
from repro.fuzz.shrink import ShrinkResult, shrink_scenario
from repro.fuzz.stacks import (
    BuiltStack,
    StackSpec,
    get_stack,
    register_stack,
    stack_names,
)

__all__ = [
    "CampaignReport",
    "Finding",
    "run_fuzz_campaign",
    "CorpusCase",
    "ReplayReport",
    "case_filename",
    "load_case",
    "load_corpus",
    "replay_case",
    "save_case",
    "CaseExplanation",
    "explain_case",
    "explain_scenario",
    "WORKLOADS",
    "FuzzConfig",
    "Scenario",
    "ScenarioOutcome",
    "ViolationRecord",
    "generate_scenario",
    "make_inputs",
    "run_scenario",
    "ShrinkResult",
    "shrink_scenario",
    "BuiltStack",
    "StackSpec",
    "get_stack",
    "register_stack",
    "stack_names",
]
