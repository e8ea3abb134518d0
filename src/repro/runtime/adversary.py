"""Intermediate-strength adversaries: the rungs between oblivious and adaptive.

The paper's floors are proved against an *oblivious* adversary (the
schedule is fixed before any coin is flipped) and demonstrably collapse
against a fully *adaptive* one (:mod:`repro.runtime.adaptive`).  This
module fills in the ladder between those endpoints so the dependence on
adversary strength can be probed, not just bracketed:

- :class:`LateAdversary` — an adaptive strategy that observes the run
  with a configurable delay ``δ`` (Robinson–Scheideler–Setzer's "late
  adversary"): every decision is made against the execution state as it
  was ``δ`` decisions ago.  ``δ = 0`` is fully adaptive; as ``δ`` grows
  the view goes stale and the adversary degenerates toward an oblivious
  scheduler (decisions that reference vanished processes fall back to a
  seeded uniform choice).
- :class:`NoisySchedulerAdversary` — an adaptive schedule perturbed by
  seeded random noise (after Aspnes 2003's noisy-scheduling model): with
  probability ``σ`` each slot goes to a uniformly random runnable
  process instead of the inner strategy's pick.  ``σ = 0`` is fully
  adaptive, ``σ = 1`` is the oblivious random-schedule control.

Both wrap any strategy from :data:`~repro.runtime.adaptive.ADAPTIVE_FAMILIES`
and plug into :func:`~repro.runtime.adaptive.run_adaptive_programs`
unchanged.  :class:`AdversarySpec` is the versioned-JSON value object
(the :class:`~repro.workloads.schedules.ScheduleSpec` analogue) that pins
one ladder rung for fuzz scenarios and probe reports; the canonical
strength ordering is ``oblivious < noisy < late-δ < adaptive``
(:data:`ADVERSARY_LADDER`).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.jsonio import expect_versioned
from repro.runtime.adaptive import (
    ADAPTIVE_FAMILIES,
    AdaptiveAdversary,
    AdversaryView,
    make_adaptive,
)

__all__ = [
    "ADVERSARY_KINDS",
    "ADVERSARY_LADDER",
    "AdversarySpec",
    "LateAdversary",
    "NoisySchedulerAdversary",
    "make_adversary",
]

#: Spec-constructible intermediate adversary kinds.
NOISY = "noisy"
LATE = "late"
ADVERSARY_KINDS = (NOISY, LATE)

#: The canonical strength ordering, weakest first.  ``oblivious`` and
#: ``adaptive`` are the existing endpoints (ScheduleSpec / AdaptiveSpec);
#: the two middle rungs are built by this module.
ADVERSARY_LADDER = ("oblivious", "noisy", "late", "adaptive")


class _StaleObject:
    """A per-name stand-in for a shared object, frozen at snapshot time.

    Strategies inspect pending operations' target objects by ``value``
    (register contents), ``name``, and identity (e.g.
    :class:`~repro.runtime.adaptive.SiftKillerAdversary` remembers "the
    register last written to" with an ``is`` comparison).  One stand-in
    per object name keeps identity stable across delayed views.  Its
    ``value`` is whatever the newest capture saw, and every snapshot shares
    it, so a delayed decision can read contents newer than its snapshot.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Any = None


class _StaleOperation:
    """A pending operation as it appeared at snapshot time."""

    __slots__ = ("kind", "obj", "value")

    def __init__(self, kind: str, obj: _StaleObject, value: Any):
        self.kind = kind
        self.obj = obj
        self.value = value


#: One pid's entry in a snapshot: its pending operation's kind, stale
#: target and written value (all ``None`` when it had no pending operation)
#: and its step count.
_Entry = Tuple[Optional[str], Optional[_StaleObject], Any, int]


class _StaleView:
    """An :class:`AdversaryView`-shaped window onto a past snapshot.

    The snapshot keeps plain tuples; a :class:`_StaleOperation` is built
    only when the strategy asks for one.
    """

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: Dict[int, _Entry]):
        self._snapshot = snapshot

    def unfinished(self) -> List[int]:
        # Captured from a live view's pid-ordered candidates: already sorted.
        return list(self._snapshot)

    def pending_operation(self, pid: int) -> Optional[_StaleOperation]:
        kind, obj, value, _ = self._snapshot[pid]
        return None if obj is None else _StaleOperation(kind, obj, value)

    def pending_kind(self, pid: int) -> Optional[str]:
        return self._snapshot[pid][0]

    def steps_taken(self, pid: int) -> int:
        return self._snapshot[pid][3]


class _Pending:
    """A process as :func:`_live_state` rebuilds it from a view's methods."""

    __slots__ = ("pending_operation",)

    def __init__(self, pending_operation: Any):
        self.pending_operation = pending_operation


def _live_state(view: Any) -> Tuple[Dict[int, Any], Dict[int, int]]:
    """``view``'s runnable processes and their step counts, by pid in pid
    order.

    For the simulator's own :class:`AdversaryView` these are its two dicts,
    read in place instead of through three method calls per pid; any other
    view is rebuilt through its methods.
    """
    if type(view) is AdversaryView:
        return view._live, view._steps
    pids = view.unfinished()
    return ({pid: _Pending(view.pending_operation(pid)) for pid in pids},
            {pid: view.steps_taken(pid) for pid in pids})


class LateAdversary(AdaptiveAdversary):
    """An adaptive strategy whose view of the run lags by ``delay`` decisions.

    Each :meth:`choose` call snapshots the observable state (which
    processes are unfinished, their pending operation kind/target/value,
    their step counts) and consults the inner strategy against the
    snapshot taken ``delay`` calls earlier.  Until ``delay`` snapshots
    have accumulated — and whenever the stale pick is no longer runnable
    — the choice falls back to a seeded uniform draw among currently
    runnable processes, which is exactly the oblivious random control.
    """

    def __init__(self, inner: AdaptiveAdversary, delay: int, seed: int = 0):
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self.inner = inner
        self.delay = delay
        self._rng = random.Random(seed)
        self._snapshots: Deque[Dict[int, _Entry]] = deque(maxlen=delay + 1)
        self._stale_objects: Dict[str, _StaleObject] = {}
        #: How often the stale pick had to be clamped to a runnable pid.
        self.clamped = 0

    def choose(self, view: AdversaryView) -> int:
        # Capture this decision's snapshot.  Each object name has one
        # stand-in whose ``value`` every capture overwrites, so older
        # snapshots see the newest captured contents through it.
        live, steps = _live_state(view)
        stale_objects = self._stale_objects
        snapshot: Dict[int, _Entry] = {}
        for pid, process in live.items():
            operation = process.pending_operation
            if operation is None:
                snapshot[pid] = (None, None, None, steps[pid])
                continue
            obj = operation.obj
            name = obj.name
            stale_obj = stale_objects.get(name)
            if stale_obj is None:
                stale_obj = stale_objects[name] = _StaleObject(name)
            stale_obj.value = getattr(obj, "value", None)
            snapshot[pid] = (operation.kind, stale_obj,
                             getattr(operation, "value", None), steps[pid])
        if not snapshot:
            raise SimulationError("adversary consulted with no runnable process")
        snapshots = self._snapshots
        snapshots.append(snapshot)
        if len(snapshots) > self.delay:
            choice = self.inner.choose(_StaleView(snapshots[0]))
            if choice in snapshot:
                return choice
            # The stale view named a process that has since finished or
            # crashed; an execution needs *some* runnable pid, so clamp to
            # a seeded uniform draw (the oblivious fallback).
            self.clamped += 1
        # The same draw serves while too little history has accumulated:
        # the adversary has seen nothing it is allowed to act on, so it
        # schedules obliviously.
        candidates = list(snapshot)
        return candidates[self._rng.randrange(len(candidates))]


class NoisySchedulerAdversary(AdaptiveAdversary):
    """An adaptive schedule perturbed by seeded uniform noise.

    With probability ``noise`` each slot is granted to a uniformly random
    runnable process; otherwise the inner strategy picks.  The noise coin
    and the uniform draw share one private seeded RNG, so runs are
    deterministic functions of ``(inner strategy, noise, seed)``.
    """

    def __init__(self, inner: AdaptiveAdversary, noise: float, seed: int = 0):
        if not 0.0 <= noise <= 1.0:
            raise ConfigurationError(
                f"noise must be in [0, 1], got {noise}"
            )
        self.inner = inner
        self.noise = noise
        self._rng = random.Random(seed)
        #: How many slots were actually perturbed.
        self.perturbed = 0

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        if not candidates:
            raise SimulationError("adversary consulted with no runnable process")
        if self._rng.random() < self.noise:
            self.perturbed += 1
            return candidates[self._rng.randrange(len(candidates))]
        return self.inner.choose(view)


def make_adversary(
    kind: str,
    *,
    inner: str = "sift-killer",
    seed: int = 0,
    delay: int = 4,
    noise: float = 0.5,
) -> AdaptiveAdversary:
    """Build one intermediate adversary (see :data:`ADVERSARY_KINDS`).

    ``inner`` names the wrapped strategy from
    :data:`~repro.runtime.adaptive.ADAPTIVE_FAMILIES`; the wrapper and the
    inner strategy derive their private randomness from ``seed`` on
    separate branches so perturbation noise never realigns inner coins.
    """
    if inner not in ADAPTIVE_FAMILIES:
        raise ConfigurationError(
            f"unknown inner adaptive strategy {inner!r}; choose from "
            f"{ADAPTIVE_FAMILIES}"
        )
    wrapped = make_adaptive(inner, seed)
    if kind == LATE:
        return LateAdversary(wrapped, delay, seed=seed ^ 0x1D872B41)
    if kind == NOISY:
        return NoisySchedulerAdversary(wrapped, noise, seed=seed ^ 0x2545F491)
    raise ConfigurationError(
        f"unknown adversary kind {kind!r}; choose from {ADVERSARY_KINDS}"
    )


@dataclass(frozen=True)
class AdversarySpec:
    """A serializable, hashable description of one ladder adversary.

    The intermediate-strength counterpart of
    :class:`~repro.workloads.schedules.ScheduleSpec` (oblivious endpoint)
    and :class:`~repro.runtime.adaptive.AdaptiveSpec` (adaptive endpoint):
    pins the rung kind, the wrapped strategy, the strength parameter
    (``delay`` for late, ``noise`` for noisy), and the private seed, so a
    scenario that used a ladder adversary replays identically from JSON.
    """

    kind: str
    inner: str = "sift-killer"
    seed: int = 0
    delay: int = 4
    noise: float = 0.5

    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ConfigurationError(
                f"unknown adversary kind {self.kind!r}; choose from "
                f"{ADVERSARY_KINDS}"
            )
        if self.inner not in ADAPTIVE_FAMILIES:
            raise ConfigurationError(
                f"unknown inner adaptive strategy {self.inner!r}; choose "
                f"from {ADAPTIVE_FAMILIES}"
            )
        if self.delay < 0:
            raise ConfigurationError(
                f"delay must be >= 0, got {self.delay}"
            )
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigurationError(
                f"noise must be in [0, 1], got {self.noise}"
            )

    def build(self) -> AdaptiveAdversary:
        """Construct a fresh adversary instance (wrappers are stateful)."""
        return make_adversary(
            self.kind,
            inner=self.inner,
            seed=self.seed,
            delay=self.delay,
            noise=self.noise,
        )

    def describe(self) -> str:
        """Human-oriented rung label, e.g. ``"late-4(sift-killer)"``."""
        strength = self.delay if self.kind == LATE else self.noise
        return f"{self.kind}-{strength}({self.inner})"

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self._JSON_VERSION,
            "kind": self.kind,
            "inner": self.inner,
            "seed": self.seed,
            "delay": self.delay,
            "noise": self.noise,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "AdversarySpec":
        expect_versioned(
            data, "adversary spec", cls._JSON_VERSION, key="version"
        )
        return cls(
            kind=str(data["kind"]),
            inner=str(data.get("inner", "sift-killer")),
            seed=int(data.get("seed", 0)),
            delay=int(data.get("delay", 4)),
            noise=float(data.get("noise", 0.5)),
        )
