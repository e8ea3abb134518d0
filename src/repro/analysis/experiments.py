"""Generic experiment sweeps: repeated trials with fresh seeds/adversaries.

Every benchmark and most integration tests funnel through these runners,
which enforce the experimental hygiene the model requires:

- each trial gets its own branch of the master seed tree, derived from the
  **trial index** (never from worker or chunk order), so a sweep is a pure
  function of ``(master_seed, trial)``;
- the adversary's schedule is drawn from the ``"schedule"`` branch and the
  algorithm from the ``"algorithm"`` branch, so they stay independent;
- a *fresh* protocol instance is built per trial (shared objects are
  one-shot).

Because trials are independent and index-seeded, the runners shard them
across processes via :mod:`repro.runtime.parallel` when asked
(``workers > 1``).  Per-trial outcomes are reassembled in trial order before
aggregation, so a parallel sweep is **bit-identical** to the serial one —
the contract pinned down by ``tests/property/test_parallel_equivalence.py``.

Long sweeps are additionally *crash-safe*: pass ``checkpoint_path`` and
completed trial chunks are journaled durably as they finish; re-running the
same sweep with ``resume=True`` replays the journal and executes only the
remainder, producing statistics bit-identical to an uninterrupted run (the
contract pinned down by ``tests/property/test_checkpoint_resume.py``).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.stats import SampleSummary, summarize, wilson_interval
from repro.core.conciliator import Conciliator
from repro.core.consensus import ConsensusProtocol
from repro.errors import CheckpointError, ConfigurationError
from repro.memory.semantics import RegisterModel, SemanticsInjector
from repro.obs.metrics import MetricsHook, MetricsRegistry
from repro.runtime.adaptive import AdaptiveSpec, run_adaptive_programs
from repro.runtime.adversary import AdversarySpec
from repro.runtime.parallel import run_indexed_trials
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.runtime.vectorized import (
    BACKENDS,
    VECTOR_BACKENDS,
    run_vectorized_sweep,
)
from repro.workloads.schedules import PARTIAL_FAMILIES, make_schedule

__all__ = [
    "ConciliatorTrialStats",
    "ConsensusTrialStats",
    "merge_conciliator_stats",
    "merge_consensus_stats",
    "model_overrides",
    "run_conciliator_trials",
    "run_consensus_trials",
    "decay_series",
    "trial_seed_tree",
]

#: Either endpoint spec that builds a step-by-step choosing adversary: a
#: ladder rung (:class:`AdversarySpec`) or the fully adaptive endpoint
#: (:class:`AdaptiveSpec`).  Both are versioned JSON values with ``seed``
#: fields and ``build()`` methods, which is all the sweeps need.
AdversaryLike = Union[AdversarySpec, AdaptiveSpec]


@dataclass(frozen=True)
class ConciliatorTrialStats:
    """Aggregates over repeated conciliator executions.

    ``kind`` records which conciliator produced the sweep (the instance's
    ``name``); :func:`merge_conciliator_stats` refuses to pool sweeps of
    different kinds, since a blend of, say, sifting and snapshot trials
    estimates nothing.
    """

    n: int
    trials: int
    agreement_count: int
    individual_steps: SampleSummary
    total_steps: SampleSummary
    validity_failures: int
    kind: str = ""

    @property
    def agreement_rate(self) -> float:
        return self.agreement_count / self.trials

    @property
    def agreement_interval(self) -> Tuple[float, float]:
        """95% Wilson interval for the agreement probability."""
        return wilson_interval(self.agreement_count, self.trials)


@dataclass(frozen=True)
class ConsensusTrialStats:
    """Aggregates over repeated consensus executions."""

    n: int
    trials: int
    agreement_failures: int
    validity_failures: int
    individual_steps: SampleSummary
    total_steps: SampleSummary
    phases: SampleSummary
    kind: str = ""

    @property
    def all_safe(self) -> bool:
        """Consensus must *never* violate agreement or validity."""
        return self.agreement_failures == 0 and self.validity_failures == 0


def merge_conciliator_stats(
    first: ConciliatorTrialStats, second: ConciliatorTrialStats
) -> ConciliatorTrialStats:
    """Pool two disjoint sweeps (e.g. different seed shards or machines).

    Counts combine exactly; the step summaries combine through
    :meth:`SampleSummary.merge`, i.e. without re-walking raw samples.  Use
    distinct master seeds (or disjoint trial ranges) per shard so the pooled
    trials stay independent.  Sweeps with different ``n`` or different
    conciliator kinds are incompatible and are rejected with
    :class:`ConfigurationError` — pooling them would silently fabricate a
    distribution no protocol configuration ever produced.
    """
    _check_mergeable("conciliator", first, second)
    return ConciliatorTrialStats(
        n=first.n,
        trials=first.trials + second.trials,
        agreement_count=first.agreement_count + second.agreement_count,
        individual_steps=first.individual_steps.merge(second.individual_steps),
        total_steps=first.total_steps.merge(second.total_steps),
        validity_failures=first.validity_failures + second.validity_failures,
        kind=first.kind or second.kind,
    )


def merge_consensus_stats(
    first: ConsensusTrialStats, second: ConsensusTrialStats
) -> ConsensusTrialStats:
    """Pool two disjoint consensus sweeps; see :func:`merge_conciliator_stats`."""
    _check_mergeable("consensus", first, second)
    return ConsensusTrialStats(
        n=first.n,
        trials=first.trials + second.trials,
        agreement_failures=first.agreement_failures + second.agreement_failures,
        validity_failures=first.validity_failures + second.validity_failures,
        individual_steps=first.individual_steps.merge(second.individual_steps),
        total_steps=first.total_steps.merge(second.total_steps),
        phases=first.phases.merge(second.phases),
        kind=first.kind or second.kind,
    )


def _check_mergeable(what: str, first: Any, second: Any) -> None:
    """Reject pooling sweeps that were run under different configurations."""
    if first.n != second.n:
        raise ConfigurationError(
            f"cannot merge {what} stats for different n: "
            f"{first.n} vs {second.n}"
        )
    if first.kind and second.kind and first.kind != second.kind:
        raise ConfigurationError(
            f"cannot merge {what} stats for different protocol kinds: "
            f"{first.kind!r} vs {second.kind!r}"
        )


def trial_seed_tree(master_seed: int, trial: int) -> SeedTree:
    """The seed branch for one trial of a sweep.

    Derivation is by trial *index* only — the same trial gets the same
    seeds whether it runs serially, in any worker, or in any chunk.  Both
    the serial and the sharded execution paths call exactly this function.
    """
    return SeedTree(master_seed).child(f"trial-{trial}")


def _validate_sweep(trials: int, n: int) -> None:
    """Common fail-fast checks for every sweep entry point."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if n <= 1:
        raise ConfigurationError(
            f"a sweep needs at least 2 processes (inputs), got {n}"
        )


def _resolve_backend(
    backend: str,
    *,
    what: str,
    allow_partial: Optional[bool],
    metrics: Optional[MetricsRegistry],
    register_model: Optional[RegisterModel],
    adversary: Optional[AdversaryLike],
) -> bool:
    """Validate a sweep's ``backend`` choice; True when it is vectorized.

    The vectorized backends batch whole trials as array programs, so the
    per-event knobs of the generator simulator do not exist there: partial
    (starved) executions cannot arise under lockstep families, there is
    no per-event instrumentation for a :class:`MetricsRegistry` to observe,
    and the kernels bake in atomic registers and fixed lockstep schedules.
    All are rejected loudly rather than silently ignored.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if backend not in VECTOR_BACKENDS:
        return False
    if allow_partial:
        raise ConfigurationError(
            f"backend {backend!r} runs every process to completion and "
            "cannot honour allow_partial=True; use the generator backend "
            "for partial (crash/starvation) executions"
        )
    if metrics is not None:
        raise ConfigurationError(
            f"backend {backend!r} executes batched kernels with no "
            "per-event metrics hooks; collect metrics on the generator "
            "backend instead"
        )
    if what == "consensus":
        raise ConfigurationError(
            f"backend {backend!r} only supports conciliator sweeps; "
            "consensus protocols interleave coin-dependent phases that "
            "have no fixed per-process op sequence"
        )
    if register_model is not None:
        raise ConfigurationError(
            f"backend {backend!r} executes batched atomic-register kernels "
            "and cannot apply a weakened register model; use the generator "
            "backend for regular/safe semantics"
        )
    if adversary is not None:
        raise ConfigurationError(
            f"backend {backend!r} only runs fixed lockstep schedules; "
            "adaptive/ladder adversaries need the generator backend"
        )
    return True


def _protocol_kind(instance: Any) -> str:
    """Stable identity of the protocol a sweep exercises."""
    return getattr(instance, "name", None) or type(instance).__name__


def _resolve_checkpoint(checkpoint_path: Optional[str], resume: bool) -> None:
    """Fail fast on ambiguous checkpoint requests.

    An existing journal is only consumed when the caller explicitly asked to
    resume; otherwise a stale file from an earlier sweep would silently
    masquerade as fresh progress.
    """
    if checkpoint_path is None:
        if resume:
            raise ConfigurationError(
                "resume=True requires checkpoint_path to name the journal"
            )
        return
    if os.path.exists(checkpoint_path) and not resume:
        raise CheckpointError(
            f"checkpoint journal {checkpoint_path!r} already exists; pass "
            "resume=True (--resume) to continue it, or remove the file to "
            "start over"
        )


class _ConciliatorOutcome(NamedTuple):
    """Per-trial record shipped back from workers (must stay picklable)."""

    agreement: int
    validity_failure: int
    individual_steps: float
    total_steps: float
    metrics: Optional[Dict[str, Any]] = None


class _ConsensusOutcome(NamedTuple):
    agreement_failure: int
    validity_failure: int
    individual_steps: float
    total_steps: float
    phases: Optional[float]
    metrics: Optional[Dict[str, Any]] = None


class _DecayOutcome(NamedTuple):
    series: List[int]
    metrics: Optional[Dict[str, Any]] = None


_MODEL_OVERRIDES = threading.local()


@contextmanager
def model_overrides(
    *,
    register_model: Optional[RegisterModel] = None,
    adversary: Optional[AdversaryLike] = None,
) -> Iterator[None]:
    """Session-level model ladder overrides for every sweep in the block.

    The :func:`~repro.runtime.parallel.parallelism` analogue for the model
    axes: sweeps that were not given an explicit ``register_model=`` /
    ``adversary=`` pick up these defaults, so ``repro experiments
    --register-model regular`` can regenerate every table under a weakened
    model without threading parameters through each experiment builder.
    Explicit arguments still win over the session default.
    """
    previous = (
        getattr(_MODEL_OVERRIDES, "register_model", None),
        getattr(_MODEL_OVERRIDES, "adversary", None),
    )
    _MODEL_OVERRIDES.register_model = register_model
    _MODEL_OVERRIDES.adversary = adversary
    try:
        yield
    finally:
        _MODEL_OVERRIDES.register_model = previous[0]
        _MODEL_OVERRIDES.adversary = previous[1]


def _resolve_model(
    register_model: Optional[RegisterModel],
    adversary: Optional[AdversaryLike],
) -> Tuple[Optional[RegisterModel], Optional[AdversaryLike]]:
    """Explicit sweep arguments, else the session overrides; atomic → None."""
    if register_model is None:
        register_model = getattr(_MODEL_OVERRIDES, "register_model", None)
    if adversary is None:
        adversary = getattr(_MODEL_OVERRIDES, "adversary", None)
    if register_model is not None and register_model.is_atomic:
        register_model = None
    return register_model, adversary


def _model_run_key_suffix(
    register_model: Optional[RegisterModel],
    adversary: Optional[AdversaryLike],
) -> str:
    """Checkpoint-key segments, present only when the axes are active, so
    journals from sweeps minted before the ladder keep their keys."""
    suffix = ""
    if register_model is not None:
        suffix += (
            f"|model={register_model.kind}:{register_model.seed}"
            f":{register_model.p_old}:{register_model.window}"
        )
    if adversary is not None:
        describe = getattr(adversary, "describe", None)
        label = describe() if describe else f"adaptive-{adversary.name}"
        suffix += f"|adversary={label}:{adversary.seed}"
    return suffix


def _trial_model_hooks(
    register_model: Optional[RegisterModel],
    trial_seeds: SeedTree,
    metrics: Optional[MetricsRegistry],
) -> List[Any]:
    """Per-trial step hooks for a declared weak register model."""
    if register_model is None:
        return []
    reseeded = replace(
        register_model,
        seed=trial_seeds.child("register-model").rng().randrange(2**32),
    )
    if metrics is not None:
        metrics.counter(
            "sweep.register_model", kind=register_model.kind
        ).inc()
    return [SemanticsInjector(reseeded)]


def _trial_adversary(
    adversary: AdversaryLike, trial_seeds: SeedTree
) -> Any:
    """A fresh, per-trial-seeded adversary instance (wrappers are stateful)."""
    reseeded = replace(
        adversary,
        seed=trial_seeds.child("adversary").rng().randrange(2**32),
    )
    return reseeded.build()


def _sweep(
    what: str,
    factory: Callable[[], Any],
    inputs: Sequence[Any],
    measure: Callable[[Any, RunResult, Optional[MetricsRegistry]], Any],
    fold: Callable[[str, List[Any]], Any],
    *,
    schedule_family: str,
    trials: int,
    master_seed: int,
    workers: Optional[int],
    chunk_size: Optional[int],
    checkpoint_path: Optional[str],
    resume: bool,
    metrics: Optional[MetricsRegistry],
    backend: str,
    allow_partial: Optional[bool] = None,
    register_model: Optional[RegisterModel] = None,
    adversary: Optional[AdversaryLike] = None,
) -> Any:
    """The one trial-sweep path behind every public runner.

    Validates the request, resolves the model axes and the backend, and
    builds the run key.  The vectorized backends run as one
    :func:`run_vectorized_sweep` call, read back as conciliator stats or,
    for decay, as the mean survivor series.  On the generator backend
    each trial builds a fresh protocol, its model hooks and (when
    collecting) a :class:`MetricsHook` last, runs under its schedule or
    its choosing adversary, and hands ``measure(protocol, result,
    registry)`` its outcome record; ``fold(kind, outcomes)`` aggregates
    the trial-ordered records once their metrics snapshots are folded
    into the sweep's registry.
    """
    _validate_sweep(trials, len(inputs))
    _resolve_checkpoint(checkpoint_path, resume)
    register_model, adversary = _resolve_model(register_model, adversary)
    vectorized = _resolve_backend(
        backend, what=what, allow_partial=allow_partial, metrics=metrics,
        register_model=register_model, adversary=adversary,
    )
    kind = _protocol_kind(factory())
    key = (
        f"kind={kind}|n={len(inputs)}|trials={trials}"
        f"|seed={master_seed}|schedule={schedule_family}"
    )
    if vectorized:
        sweep = run_vectorized_sweep(
            factory,
            inputs,
            schedule_family=schedule_family,
            trials=trials,
            master_seed=master_seed,
            oracle=backend == "vectorized-oracle",
            workers=workers,
            chunk_size=chunk_size,
            checkpoint_path=checkpoint_path,
            run_key=f"{what}|backend={backend}|{key}",
            collect_survivors=what == "decay",
        )
        return sweep.decay_series() if what == "decay" else sweep.stats()
    if allow_partial is None:
        allow_partial = schedule_family in PARTIAL_FAMILIES
    inputs = list(inputs)
    # Without a registry, trials run the simulator's no-hook fast path and
    # pay nothing.
    collect = metrics is not None
    run_key = (
        f"{what}|{key}"
        # Decay has no allow_partial knob (the family decides it), so its
        # keys never carried the segment.
        + ("" if what == "decay" else f"|partial={int(allow_partial)}")
        + ("|metrics=1" if collect else "")
        + _model_run_key_suffix(register_model, adversary)
    )

    def task(trial: int) -> Any:
        trial_seeds = trial_seed_tree(master_seed, trial)
        protocol = factory()
        programs = [protocol.program] * protocol.n
        trial_registry = MetricsRegistry() if collect else None
        hooks = _trial_model_hooks(register_model, trial_seeds, trial_registry)
        if trial_registry is not None:
            hooks.append(MetricsHook(trial_registry))
        if adversary is None:
            schedule = make_schedule(
                schedule_family, protocol.n, trial_seeds.child("schedule")
            )
            result = run_programs(
                programs, schedule, trial_seeds, inputs=inputs,
                allow_partial=allow_partial, hooks=hooks,
            )
        else:
            result = run_adaptive_programs(
                programs, _trial_adversary(adversary, trial_seeds),
                trial_seeds, inputs=inputs, hooks=hooks,
            )
        outcome = measure(protocol, result, trial_registry)
        if trial_registry is None:
            return outcome
        return outcome._replace(metrics=trial_registry.to_json())

    outcomes = run_indexed_trials(
        task,
        trials,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
        run_key=run_key,
    )
    if metrics is not None:
        # Each trial recorded into a fresh registry in its (possibly
        # forked) worker; folding the snapshots by trial index, never by
        # worker or completion order, keeps the aggregate bit-identical
        # across worker counts, as the sweep statistics are.
        for outcome in outcomes:
            metrics.merge_snapshot(outcome.metrics)
    return fold(kind, outcomes)


def run_conciliator_trials(
    factory: Callable[[], Conciliator],
    inputs: Sequence[Any],
    *,
    schedule_family: str = "random",
    trials: int = 100,
    master_seed: int = 0,
    allow_partial: Optional[bool] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    backend: str = "generator",
    register_model: Optional[RegisterModel] = None,
    adversary: Optional[AdversaryLike] = None,
) -> ConciliatorTrialStats:
    """Run ``trials`` independent executions of a conciliator.

    ``allow_partial`` defaults to True exactly for the crash adversary (its
    victims never finish); agreement and validity are then judged on the
    finished processes, as the wait-free model demands.

    ``register_model`` declares weakened register semantics
    (:class:`~repro.memory.semantics.RegisterModel`) and ``adversary``
    replaces the oblivious ``schedule_family`` with a choosing adversary —
    a ladder rung (:class:`~repro.runtime.adversary.AdversarySpec`) or the
    adaptive endpoint (:class:`~repro.runtime.adaptive.AdaptiveSpec`).
    Each trial reseeds the spec from its own seed branch, keeping sweeps
    pure functions of ``(master_seed, trial)``.  Both default to the
    session overrides installed by :func:`model_overrides`; the vectorized
    backends reject either axis loudly.

    ``backend`` selects the execution engine.  ``"generator"`` (default)
    steps every trial through the event-level simulator.  ``"vectorized"``
    batches thousands of trials as NumPy array programs — orders of
    magnitude faster, restricted to lockstep schedule families (see
    :func:`repro.runtime.vectorized.supported_families`) and drawing its
    randomness from per-block streams rather than per-trial generator
    streams.  ``"vectorized-oracle"`` replays the generator's exact
    per-trial streams through the same kernels, so its stats are
    bit-identical to the generator backend (this is the differential-test
    mode; it is not faster than the fast mode).  Vectorized backends reject
    ``allow_partial=True`` and explicit ``metrics``.

    ``workers``/``chunk_size`` shard the sweep across processes (see
    :mod:`repro.runtime.parallel`); ``None`` defers to the session default.
    Results are bit-identical across all worker counts and chunk sizes.
    ``factory`` must build a fresh, deterministic instance on every call —
    it runs once per trial, possibly in a forked worker.

    ``checkpoint_path`` journals completed trial chunks durably; a killed
    sweep re-run with ``resume=True`` replays the journal and continues,
    with stats bit-identical to an uninterrupted run.

    ``metrics`` optionally names a
    :class:`~repro.obs.metrics.MetricsRegistry` that aggregates per-trial
    simulator metrics (folded in trial order, so the aggregate is
    bit-identical across worker counts).  Without one the sweep collects
    nothing.
    """
    input_map = dict(enumerate(inputs))

    def measure(conciliator: Conciliator, result: RunResult,
                registry: Optional[MetricsRegistry]) -> _ConciliatorOutcome:
        return _ConciliatorOutcome(
            agreement=int(result.agreement),
            validity_failure=int(not result.validity_holds(input_map)),
            individual_steps=float(result.max_individual_steps),
            total_steps=float(result.total_steps),
        )

    def fold(kind: str, outcomes: List[_ConciliatorOutcome]) -> ConciliatorTrialStats:
        return ConciliatorTrialStats(
            n=len(inputs),
            trials=trials,
            agreement_count=sum(o.agreement for o in outcomes),
            individual_steps=summarize([o.individual_steps for o in outcomes]),
            total_steps=summarize([o.total_steps for o in outcomes]),
            validity_failures=sum(o.validity_failure for o in outcomes),
            kind=kind,
        )

    return _sweep(
        "conciliator", factory, inputs, measure, fold,
        schedule_family=schedule_family, trials=trials,
        master_seed=master_seed, workers=workers, chunk_size=chunk_size,
        checkpoint_path=checkpoint_path, resume=resume, metrics=metrics,
        backend=backend, allow_partial=allow_partial,
        register_model=register_model, adversary=adversary,
    )


def run_consensus_trials(
    factory: Callable[[], ConsensusProtocol],
    inputs: Sequence[Any],
    *,
    schedule_family: str = "random",
    trials: int = 50,
    master_seed: int = 0,
    allow_partial: Optional[bool] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    backend: str = "generator",
    register_model: Optional[RegisterModel] = None,
    adversary: Optional[AdversaryLike] = None,
) -> ConsensusTrialStats:
    """Run ``trials`` independent consensus executions and check safety.

    Accepts the same ``workers``/``chunk_size`` sharding,
    ``checkpoint_path``/``resume`` crash-safety, ``metrics`` aggregation,
    and ``register_model``/``adversary`` model-ladder knobs as
    :func:`run_conciliator_trials`, with the same bit-identical
    guarantees.  Only the ``"generator"`` backend applies: a consensus
    protocol's op sequence depends on its coin flips, so the
    occurrence-time factorization the vectorized kernels exploit does not
    exist (the vectorized backends are rejected with a clear error).
    """
    input_map = dict(enumerate(inputs))

    def measure(protocol: ConsensusProtocol, result: RunResult,
                registry: Optional[MetricsRegistry]) -> _ConsensusOutcome:
        phases: Optional[float] = None
        if protocol.phases_used:
            phases = float(max(protocol.phases_used.values()))
            if registry is not None:
                registry.histogram("consensus.phases").observe(phases)
        return _ConsensusOutcome(
            agreement_failure=int(not result.agreement),
            validity_failure=int(not result.validity_holds(input_map)),
            individual_steps=float(result.max_individual_steps),
            total_steps=float(result.total_steps),
            phases=phases,
        )

    def fold(kind: str, outcomes: List[_ConsensusOutcome]) -> ConsensusTrialStats:
        phase_samples = [o.phases for o in outcomes if o.phases is not None]
        return ConsensusTrialStats(
            n=len(inputs),
            trials=trials,
            agreement_failures=sum(o.agreement_failure for o in outcomes),
            validity_failures=sum(o.validity_failure for o in outcomes),
            individual_steps=summarize([o.individual_steps for o in outcomes]),
            total_steps=summarize([o.total_steps for o in outcomes]),
            phases=summarize(phase_samples if phase_samples else [0.0]),
            kind=kind,
        )

    return _sweep(
        "consensus", factory, inputs, measure, fold,
        schedule_family=schedule_family, trials=trials,
        master_seed=master_seed, workers=workers, chunk_size=chunk_size,
        checkpoint_path=checkpoint_path, resume=resume, metrics=metrics,
        backend=backend, allow_partial=allow_partial,
        register_model=register_model, adversary=adversary,
    )


def decay_series(
    factory: Callable[[], Conciliator],
    inputs: Sequence[Any],
    *,
    schedule_family: str = "random",
    trials: int = 50,
    master_seed: int = 0,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    backend: str = "generator",
) -> List[float]:
    """Mean distinct-survivor counts ``Y_i`` per round across trials.

    Entry ``i`` is the average, over trials, of the number of distinct
    personae held by processes after completing round ``i+1`` — the measured
    counterpart of the decay bounds in Lemmas 1 and 3/4.  ``metrics``
    aggregates per-trial simulator metrics exactly as in
    :func:`run_conciliator_trials`, and ``backend`` selects the execution
    engine under the same rules (the vectorized kernels track per-round
    survivor rows, so the folded series has the same shape; in oracle mode
    it is bit-identical to the generator's).  The model axes follow the
    session overrides of :func:`model_overrides`, and ``crash-half`` runs
    partial executions, both as in :func:`run_conciliator_trials`.
    """

    def measure(conciliator: Conciliator, result: RunResult,
                registry: Optional[MetricsRegistry]) -> _DecayOutcome:
        series = list(conciliator.survivor_series())
        if registry is not None:
            registry.histogram("conciliator.rounds").observe(len(series))
        return _DecayOutcome(series=series)

    def fold(kind: str, outcomes: List[_DecayOutcome]) -> List[float]:
        sums: Dict[int, float] = {}
        rounds_seen = 0
        for outcome in outcomes:
            series = outcome.series
            rounds_seen = max(rounds_seen, len(series))
            for index, count in enumerate(series):
                sums[index] = sums.get(index, 0.0) + count
        return [sums.get(index, 0.0) / trials for index in range(rounds_seen)]

    return _sweep(
        "decay", factory, inputs, measure, fold,
        schedule_family=schedule_family, trials=trials,
        master_seed=master_seed, workers=workers, chunk_size=chunk_size,
        checkpoint_path=checkpoint_path, resume=resume, metrics=metrics,
        backend=backend,
    )
