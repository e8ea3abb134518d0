"""Simulator workers behind the consensus service.

The service does not reimplement any protocol: a worker attempt is one
seeded round pushed through the PR 1 generator engine
(:func:`repro.runtime.simulator.run_programs`) or, when the service has
degraded under overload, the PR 6 vectorized backend
(:func:`repro.runtime.vectorized.run_vectorized_sweep` with a single
trial).  :data:`ALGORITHMS` holds the :mod:`repro.catalog` algorithms
the CLI exposes, so a session can name any algorithm the sweeps can.

Simulated rounds are CPU work, not I/O: under the deterministic loadtest
they run inline on the event loop (blocking is fine — the virtual clock
only moves on timers), and their *service time* is modelled separately by
the cost model in :mod:`repro.service.service` from the round's charged
step count.  That split is what lets the loadtest stay a pure function of
its seed: the simulated execution is seeded, the cost model is
deterministic arithmetic, and no wall-clock measurement ever enters the
report.

Degradation eligibility is conservative: an algorithm/family pair falls
back to the vectorized kernel only when the kernel provably accepts it
(:func:`repro.runtime.vectorized.supported_families`) and NumPy is
importable; otherwise the service keeps paying generator prices and sheds
harder — a correct answer slowly beats a wrong answer fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro import catalog
from repro.errors import ConfigurationError
from repro.runtime.rng import SeedTree, derive_seed
from repro.runtime.simulator import run_programs
from repro.runtime.vectorized import (
    numpy_available,
    run_vectorized_sweep,
    supported_families,
)
from repro.service.session import SessionRequest
from repro.workloads.schedules import make_schedule

__all__ = [
    "ALGORITHMS",
    "WorkOutcome",
    "execute_session",
    "vectorized_eligible",
]

#: Session-visible algorithms (name -> factory taking ``n``), derived from
#: the catalog.  :func:`execute_session` resolves factories here at call
#: time, so wrapping an entry instruments every later session.
ALGORITHMS: Dict[str, Callable[[int], Any]] = {
    record.name: record.factory for record in catalog.CATALOG if record.exposed
}


@dataclass(frozen=True)
class WorkOutcome:
    """One successful worker attempt, in service terms.

    ``steps`` is the round's total charged step count — the unit the
    service's cost model converts into virtual service seconds — and
    ``agreement`` is the paper's per-trial success flag (did every process
    leave with the same preference).
    """

    agreement: bool
    steps: float
    max_individual_steps: float
    backend: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "agreement": self.agreement,
            "steps": self.steps,
            "max_individual_steps": self.max_individual_steps,
            "backend": self.backend,
        }


def vectorized_eligible(request: SessionRequest) -> bool:
    """May this session degrade to the vectorized backend?

    True only when the algorithm has a kernel, the kernel supports the
    requested schedule family in fast (non-oracle) mode, and NumPy is
    present.  Ineligible sessions simply stay on the generator path.
    """
    if request.algorithm not in ALGORITHMS:
        return False
    kernel = catalog.get(request.algorithm).kernel
    if kernel is None or (
        request.schedule_family not in supported_families(kernel, False)
    ):
        return False
    return numpy_available()


def _session_inputs(request: SessionRequest) -> list:
    """The round's input vector: alternating binary preferences."""
    return [index % 2 for index in range(request.n)]


def _session_seed(request: SessionRequest) -> int:
    """Master seed for the round, namespaced per session."""
    return derive_seed(request.seed, "service-session", str(request.session_id))


def execute_session(
    request: SessionRequest, *, backend: str = "generator"
) -> WorkOutcome:
    """Run one session's round to completion, inline.

    Deterministic in ``(request, backend)``: the simulated execution is a
    pure function of the session's derived seed.  Raises
    :class:`~repro.errors.ConfigurationError` on an unknown algorithm or a
    family/backend mismatch — configuration errors, not transient worker
    failures, so the service reports them instead of retrying.
    """
    factory = ALGORITHMS.get(request.algorithm)
    if factory is None:
        raise ConfigurationError(
            f"unknown algorithm {request.algorithm!r}; "
            f"choose from {tuple(sorted(ALGORITHMS))}"
        )
    if backend == "vectorized":
        return _execute_vectorized(request, factory)
    if backend != "generator":
        raise ConfigurationError(
            f"unknown worker backend {backend!r}; "
            f"choose 'generator' or 'vectorized'"
        )
    return _execute_generator(request, factory)


def _execute_generator(
    request: SessionRequest, factory: Callable[[int], Any]
) -> WorkOutcome:
    seeds = SeedTree(_session_seed(request))
    conciliator = factory(request.n)
    schedule = make_schedule(
        request.schedule_family, request.n, seeds.child("schedule")
    )
    result = run_programs(
        [conciliator.program] * request.n,
        schedule,
        seeds,
        inputs=_session_inputs(request),
    )
    return WorkOutcome(
        agreement=bool(result.agreement),
        steps=float(result.total_steps),
        max_individual_steps=float(result.max_individual_steps),
        backend="generator",
    )


def _execute_vectorized(
    request: SessionRequest, factory: Callable[[int], Any]
) -> WorkOutcome:
    if not vectorized_eligible(request):
        raise ConfigurationError(
            f"session {request.session_id} "
            f"(algorithm={request.algorithm!r}, "
            f"family={request.schedule_family!r}) is not eligible for the "
            f"vectorized backend"
        )
    sweep = run_vectorized_sweep(
        lambda: factory(request.n),
        _session_inputs(request),
        schedule_family=request.schedule_family,
        trials=1,
        master_seed=_session_seed(request),
        oracle=False,
        workers=1,
    )
    stats = sweep.stats()
    return WorkOutcome(
        agreement=stats.agreement_count == 1,
        steps=float(stats.total_steps.mean),
        max_individual_steps=float(stats.individual_steps.mean),
        backend="vectorized",
    )
