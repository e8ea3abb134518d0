"""Protocol stack registry for the chaos fuzzer.

A *stack* is one runnable composition from the paper's toolbox: a bare
conciliator (Algorithms 1-3 and their variants), an adopt-commit object, or
a full consensus protocol (conciliator + adopt-commit phases).  The fuzzer
draws stacks from this registry, so adding an entry here automatically
exposes the new protocol to every fuzz campaign.  The conciliator stacks
and their model ladder come from :mod:`repro.catalog`, one per record.

Each :class:`StackSpec` knows how to build programs for a given ``n`` and
input assignment, and supplies the per-process step budget the
wait-freedom oracle enforces.  Budgets come in two flavours:

- *exact* — a proven worst-case individual bound (``step_bound()``), so a
  single extra step is a genuine wait-freedom violation;
- *generous* — for protocols whose worst case is probabilistic (the
  geometric phase count of consensus), a bound chosen so an honest run
  exceeds it with probability at most ``2**-GEOMETRIC_PHASES`` per
  scenario.  Exceeding a generous budget is still reported as a
  violation: at that likelihood the alternative explanation is a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import catalog
from repro.adoptcommit.base import AdoptCommitObject
from repro.adoptcommit.collect_ac import CollectAdoptCommit
from repro.adoptcommit.encoders import DomainEncoder
from repro.adoptcommit.flag_ac import BinaryAdoptCommit, FlagAdoptCommit
from repro.adoptcommit.snapshot_ac import SnapshotAdoptCommit
from repro.core.conciliator import Conciliator
from repro.core.consensus import (
    ConsensusProtocol,
    register_consensus,
    snapshot_consensus,
)
from repro.errors import ConfigurationError
from repro.memory.semantics import RegisterModel
from repro.runtime.adversary import AdversarySpec
from repro.runtime.process import Program

__all__ = [
    "GEOMETRIC_PHASES",
    "SERVICE_CHAOS_STACKS",
    "BuiltStack",
    "StackSpec",
    "get_service_chaos",
    "get_stack",
    "ladder_stack_names",
    "register_service_chaos",
    "register_stack",
    "service_chaos_names",
    "stack_names",
]

#: Phase allowance for protocols whose round count is geometric with
#: success probability >= 1/2 per phase: an honest run needs more phases
#: with probability <= 2**-GEOMETRIC_PHASES.
GEOMETRIC_PHASES = 64

#: Stack kinds, which determine the oracles applied to outputs.
CONCILIATOR = "conciliator"
ADOPT_COMMIT = "adopt-commit"
CONSENSUS = "consensus"
_KINDS = (CONCILIATOR, ADOPT_COMMIT, CONSENSUS)


@dataclass
class BuiltStack:
    """One stack instantiated for a concrete run."""

    programs: List[Program]
    #: Per-process step budget enforced by the wait-freedom watchdog.
    step_budget: int
    #: True when ``step_budget`` is a proven worst-case bound.
    exact_budget: bool
    #: The conciliator instance the programs run, when the stack has one
    #: at its top level — its round bookkeeping feeds post-run trace
    #: annotation (``TraceRecorder.annotate_conciliator``).
    conciliator: Optional[Conciliator] = None


@dataclass(frozen=True)
class StackSpec:
    """A named, buildable protocol composition.

    Attributes:
        name: registry key, also recorded in scenarios and corpus cases.
        kind: ``"conciliator"``, ``"adopt-commit"``, or ``"consensus"`` —
            selects which output oracles apply.
        builder: ``(n, inputs) -> BuiltStack``.
        min_n: smallest process count the stack supports.
        workloads: input-gallery names this stack accepts (``None`` = all).
        planted: True for deliberately buggy calibration stacks, which are
            excluded from honest campaigns.
        register_model: when set, scenarios drawn for this stack run under
            the weakened register semantics it declares (the per-trial
            resolution seed is drawn at generation time).
        adversary: when set, scenarios drawn for this stack run under this
            intermediate-strength adversary instead of an oblivious
            schedule or fully adaptive strategy.
        ladder: True for model-ladder stacks (honest protocols pinned to a
            weakened register model and/or intermediate adversary).  Like
            planted stacks they are excluded from the default draw — the
            default campaign's seeded stack choice, and with it the
            committed regression corpus, must not shift when the ladder
            grows — and participate only when named explicitly (e.g. by
            the nightly weakened-model soak leg).
        attribution: the ``(algorithm, epsilon)`` arguments of
            :func:`repro.analysis.theory.predicted_attribution` that grade
            the stack's traced step counts in an explanation; ``None`` for
            stacks whose step structure has no closed form.
    """

    name: str
    kind: str
    builder: Callable[[int, Sequence[Any]], BuiltStack] = field(compare=False)
    min_n: int = 1
    workloads: Optional[Tuple[str, ...]] = None
    planted: bool = False
    register_model: Optional[RegisterModel] = None
    adversary: Optional[AdversarySpec] = None
    ladder: bool = False
    attribution: Optional[Tuple[str, float]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown stack kind {self.kind!r}; choose from {_KINDS}"
            )

    def build(self, n: int, inputs: Sequence[Any]) -> BuiltStack:
        """Instantiate fresh shared state and programs for one run."""
        if n < self.min_n:
            raise ConfigurationError(
                f"stack {self.name!r} needs n >= {self.min_n}, got {n}"
            )
        return self.builder(n, inputs)


def _domain(inputs: Sequence[Any]) -> List[Any]:
    """Input values deduplicated in first-appearance order (encoder domain)."""
    seen: List[Any] = []
    for value in inputs:
        if value not in seen:
            seen.append(value)
    return seen


def _conciliator_stack(
    make: Callable[[int], Conciliator]
) -> Callable[[int, Sequence[Any]], BuiltStack]:
    def build(n: int, inputs: Sequence[Any]) -> BuiltStack:
        conciliator = make(n)
        return BuiltStack(
            [conciliator.program] * n, conciliator.step_bound(), True,
            conciliator=conciliator,
        )

    return build


def _adopt_commit_stack(
    make: Callable[[int, Sequence[Any]], AdoptCommitObject]
) -> Callable[[int, Sequence[Any]], BuiltStack]:
    def build(n: int, inputs: Sequence[Any]) -> BuiltStack:
        ac = make(n, inputs)

        def program(ctx):
            result = yield from ac.invoke(ctx, ctx.input_value)
            return result

        return BuiltStack([program] * n, ac.step_bound(), True)

    return build


def _consensus_stack(
    make: Callable[[int, Sequence[Any]], ConsensusProtocol]
) -> Callable[[int, Sequence[Any]], BuiltStack]:
    def build(n: int, inputs: Sequence[Any]) -> BuiltStack:
        protocol = make(n, inputs)
        conciliator, adopt_commit = protocol.phase(0)
        per_phase = conciliator.step_bound() + adopt_commit.step_bound()
        return BuiltStack(
            [protocol.program] * n, GEOMETRIC_PHASES * per_phase, False
        )

    return build


STACKS: Dict[str, StackSpec] = {}


def register_stack(spec: StackSpec, *, overwrite: bool = False) -> StackSpec:
    """Add a stack to the registry (tests use this to plant custom bugs)."""
    if spec.name in STACKS and not overwrite:
        raise ConfigurationError(f"stack {spec.name!r} already registered")
    STACKS[spec.name] = spec
    return spec


def get_stack(name: str) -> StackSpec:
    """Look up a stack by name."""
    try:
        return STACKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown stack {name!r}; choose from {sorted(STACKS)}"
        ) from None


def stack_names(
    *, include_planted: bool = False, include_ladder: bool = False
) -> List[str]:
    """Registered stack names, honest-only by default, in a stable order.

    Ladder stacks (weakened register models / intermediate adversaries)
    are excluded by default for the same reason planted stacks are: the
    fuzzer's seeded stack draw samples this list, so growing it would
    shift every existing campaign and invalidate the committed corpus.
    """
    return [
        name
        for name, spec in STACKS.items()
        if (include_planted or not spec.planted)
        and (include_ladder or not spec.ladder)
    ]


def ladder_stack_names() -> List[str]:
    """Names of every registered model-ladder stack, in a stable order."""
    return [name for name, spec in STACKS.items() if spec.ladder]


# ----- the honest registry --------------------------------------------------

for _record in catalog.CATALOG:
    register_stack(StackSpec(
        _record.name, CONCILIATOR, _conciliator_stack(_record.factory),
        attribution=_record.attribution,
    ))

register_stack(StackSpec(
    "snapshot-ac", ADOPT_COMMIT,
    _adopt_commit_stack(lambda n, inputs: SnapshotAdoptCommit(n)),
))
register_stack(StackSpec(
    "collect-ac", ADOPT_COMMIT,
    _adopt_commit_stack(lambda n, inputs: CollectAdoptCommit(n)),
))
register_stack(StackSpec(
    "flag-ac", ADOPT_COMMIT,
    _adopt_commit_stack(
        lambda n, inputs: FlagAdoptCommit(n, DomainEncoder(_domain(inputs)))
    ),
))
register_stack(StackSpec(
    "binary-ac", ADOPT_COMMIT,
    _adopt_commit_stack(lambda n, inputs: BinaryAdoptCommit(n)),
    workloads=("binary", "unanimous"),
))

register_stack(StackSpec(
    "snapshot-consensus", CONSENSUS,
    _consensus_stack(lambda n, inputs: snapshot_consensus(n)),
))
register_stack(StackSpec(
    "register-consensus", CONSENSUS,
    _consensus_stack(lambda n, inputs: register_consensus(n, _domain(inputs))),
))
register_stack(StackSpec(
    "cil-register-consensus", CONSENSUS,
    _consensus_stack(
        lambda n, inputs: register_consensus(
            n, _domain(inputs), linear_total_work=True
        )
    ),
))


# ----- the model ladder -------------------------------------------------------
#
# Every catalog conciliator crossed with {regular, safe} register semantics
# and {late-δ, noisy-σ} adversaries: the robustness envelope the probe report
# and the nightly weakened-model soak sweep.  Ladder stacks reuse the base
# stack's builder/budget verbatim — only the model the scenario runs under
# changes — and are excluded from the default draw (see ``ladder=True``).

#: The ladder's register-model axis (atomic is the baseline, not a rung).
_LADDER_MODELS = (
    RegisterModel("regular"),
    RegisterModel("safe"),
)

#: The ladder's adversary axis.  ``pending-reads`` is the inner strategy
#: throughout: it is the documented Algorithm 2 killer, so the late/noisy
#: wrappers measure how much *delayed* or *noise-diluted* access to that
#: power still costs (δ and σ here match the probe report's defaults).
_LADDER_ADVERSARIES = (
    AdversarySpec("late", inner="pending-reads", delay=1),
    AdversarySpec("noisy", inner="pending-reads", noise=0.8),
)

for _base in catalog.names():
    _spec = STACKS[_base]
    for _model in _LADDER_MODELS:
        for _adversary in _LADDER_ADVERSARIES:
            register_stack(StackSpec(
                f"{_base}+{_model.kind}+{_adversary.kind}",
                _spec.kind,
                _spec.builder,
                min_n=_spec.min_n,
                workloads=_spec.workloads,
                register_model=_model,
                adversary=_adversary,
                ladder=True,
            ))


# ----- service chaos stacks --------------------------------------------------
#
# The service layer (repro.service) is chaos-tested the same declarative
# way the simulator is fuzzed: a named, committed plan of faults drawn
# from the service vocabulary in repro.service.faults.  These live in
# their OWN registry — not STACKS — because the fuzzer's seeded stack
# draw indexes into stack_names(), and inserting service entries there
# would silently shift every committed corpus scenario onto a different
# protocol.  ``repro loadtest --chaos NAME`` resolves names here.

#: Service chaos registry (name -> ServiceFaultPlan).
SERVICE_CHAOS_STACKS: Dict[str, "ServiceFaultPlan"] = {}


def register_service_chaos(
    name: str, plan: "ServiceFaultPlan", *, overwrite: bool = False
) -> "ServiceFaultPlan":
    """Register a named service chaos plan for the loadgen.

    Mirrors :func:`register_stack`: duplicate names are refused unless
    ``overwrite=True``, so experiment configs can rely on a name meaning
    one plan.
    """
    if not overwrite and name in SERVICE_CHAOS_STACKS:
        raise ConfigurationError(
            f"service chaos stack {name!r} is already registered; pass "
            f"overwrite=True to replace it"
        )
    SERVICE_CHAOS_STACKS[name] = plan
    return plan


def get_service_chaos(name: str) -> "ServiceFaultPlan":
    """Look up a registered service chaos plan by name."""
    try:
        return SERVICE_CHAOS_STACKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown service chaos stack {name!r}; choose from "
            f"{tuple(sorted(SERVICE_CHAOS_STACKS))}"
        ) from None


def service_chaos_names() -> Tuple[str, ...]:
    """Registered service chaos stack names, sorted."""
    return tuple(sorted(SERVICE_CHAOS_STACKS))


from repro.service.faults import (  # noqa: E402  (registry block order)
    ResponseDelayFault,
    ServiceFaultPlan,
    ShardBlackoutFault,
    WorkerKillFault,
)

# The stock plan behind the committed SLO baseline, timed against the
# ``burst`` arrival profile (first burst occupies [0, 1.5)):
# - a shard-0 blackout late in the burst (after sustained overload has
#   already engaged degraded mode) trips its breaker within milliseconds
#   (four instant failures), sheds with breaker-open until the cooldown,
#   then recovers through half-open probes — the full
#   open/half-open/close cycle the acceptance gate checks;
# - three worker kills on shard 1 exercise the retry/backoff path
#   without tripping that breaker (threshold 4);
# - a response-delay window on shard 1 stretches tail latency while the
#   service is already degraded, so slow-but-successful attempts appear
#   in p99.
register_service_chaos("baseline", ServiceFaultPlan(
    worker_kills=(WorkerKillFault(shard=1, at=2.0, count=3),),
    response_delays=(
        ResponseDelayFault(shard=1, start=1.8, duration=0.4, delay=0.3),
    ),
    blackouts=(ShardBlackoutFault(shard=0, start=1.2, duration=0.5),),
))

# A gentler plan for the steady profile: one kill burst and one short
# brownout, no breaker trips expected — useful as a chaos smoke test
# that must NOT change completion counts.
register_service_chaos("brownout", ServiceFaultPlan(
    worker_kills=(WorkerKillFault(shard=0, at=1.0, count=2),),
    response_delays=(
        ResponseDelayFault(shard=1, start=2.0, duration=0.5, delay=0.1),
    ),
))

# The planted calibration stacks register themselves when their module
# runs; importing it here, after every honest and ladder stack, keeps the
# registry complete and its order fixed whichever module is imported first.
import repro.fuzz.planted  # noqa: E402, F401
