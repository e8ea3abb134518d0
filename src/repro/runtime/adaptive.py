"""Adaptive adversaries: the negative control for obliviousness.

Section 5 of the paper ("Strength of the adversary") stresses that the new
algorithms depend on the adversary *not* seeing coin flips: the sifting
conciliator needs at least a **content-oblivious** adversary, because a
scheduler that can see whether a process is about to read or write the
round register can defeat the sift entirely.

This module implements that stronger adversary so the dependence can be
*measured* (experiment E18).  An :class:`AdaptiveAdversary` is consulted at
every step and may inspect an :class:`AdversaryView` — which process is
unfinished, what operation each would execute next (kind, target object,
written value), and current step counts.  This is strictly more power than
the oblivious model grants, and exactly the power the paper's analysis
forbids.

Provided strategies:

- :class:`PendingKindAdversary` — prefers processes whose next operation
  matches a kind (e.g. schedule all pending *reads* first).  Against
  Algorithm 2 this is the "sift killer": readers drain the rounds while
  registers are still empty, keep their own personae, and agreement
  collapses to near zero.
- :class:`LongestFirstAdversary` / :class:`ShortestFirstAdversary` — favour
  processes by accumulated step count (fairness attacks).
- :class:`RandomAdaptiveAdversary` — random choice; behaviourally identical
  to an oblivious random schedule, included as the experiment's control.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.jsonio import expect_versioned
from repro.runtime.hooks import StepHook
from repro.runtime.operations import Operation
from repro.runtime.process import Process, Program
from repro.runtime.results import RunResult
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import Simulator, _build_processes

__all__ = [
    "ADAPTIVE_FAMILIES",
    "AdversaryView",
    "AdaptiveAdversary",
    "AdaptiveSpec",
    "PendingKindAdversary",
    "LongestFirstAdversary",
    "ShortestFirstAdversary",
    "RandomAdaptiveAdversary",
    "SiftKillerAdversary",
    "make_adaptive",
    "run_adaptive_programs",
]


class AdversaryView:
    """Read-only view of execution state offered to an adaptive adversary.

    ``live`` maps every runnable pid (unfinished and not crashed) to its
    process, in ascending pid order.  It is the simulator's own dict, which
    its step loop shrinks the moment a process finishes or crashes, so the
    view never scans or sorts: :meth:`unfinished` is a copy of its keys.
    The per-process queries take a runnable pid.
    """

    __slots__ = ("_live", "_steps")

    def __init__(self, live: Dict[int, Process], steps: Dict[int, int]):
        self._live = live
        self._steps = steps

    def unfinished(self) -> List[int]:
        """Pids that still have an operation to execute, sorted.

        Processes fail-stopped by a fault hook are excluded: a crashed
        process has no next operation for even an omniscient adversary to
        schedule.
        """
        return list(self._live)

    def pending_operation(self, pid: int) -> Optional[Operation]:
        """The operation ``pid`` would execute if scheduled now."""
        return self._live[pid].pending_operation

    def pending_kind(self, pid: int) -> Optional[str]:
        """Kind of the pending operation (``"read"``, ``"write"``, ...)."""
        operation = self._live[pid].pending_operation
        return None if operation is None else operation.kind

    def steps_taken(self, pid: int) -> int:
        return self._steps[pid]


class AdaptiveAdversary:
    """Chooses the next process to run, seeing the full execution state."""

    def choose(self, view: AdversaryView) -> int:
        raise NotImplementedError


class PendingKindAdversary(AdaptiveAdversary):
    """Schedule processes whose pending op kind is earliest in ``priority``.

    ``priority`` is a sequence of kinds; a pending kind not listed ranks
    last.  Ties break round-robin by pid rotation so no process starves.
    """

    def __init__(self, priority: Sequence[str]):
        self.priority = list(priority)
        #: kind -> position of its first occurrence in ``priority``.
        self._ranks: Dict[str, int] = {}
        for rank, kind in enumerate(self.priority):
            self._ranks.setdefault(kind, rank)
        self._rotation = 0

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        if not candidates:
            raise SimulationError("adversary consulted with no runnable process")
        self._rotation += 1
        rotation = self._rotation
        modulus = max(candidates) + 1
        rank = self._ranks.get
        unlisted = len(self.priority)
        pending_kind = view.pending_kind
        # One first-minimum pass over one integer key per candidate: rank
        # first, then the rotated pid, which is always below ``modulus``.
        chosen = -1
        least = (unlisted + 1) * modulus
        for pid in candidates:
            key = (rank(pending_kind(pid), unlisted) * modulus
                   + (pid + rotation) % modulus)
            if key < least:
                chosen, least = pid, key
        return chosen


class LongestFirstAdversary(AdaptiveAdversary):
    """Always run the process that has already taken the most steps."""

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        return max(candidates, key=lambda pid: (view.steps_taken(pid), -pid))


class ShortestFirstAdversary(AdaptiveAdversary):
    """Always run the process with the fewest steps (max fairness)."""

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        return min(candidates, key=lambda pid: (view.steps_taken(pid), pid))


class RandomAdaptiveAdversary(AdaptiveAdversary):
    """Uniform choice among unfinished processes (the oblivious control)."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        return candidates[self._rng.randrange(len(candidates))]


class SiftKillerAdversary(AdaptiveAdversary):
    """A content-aware strategy tuned against Algorithm 2.

    Ordering rules, strongest first:

    1. run any process about to *read an empty register* — it keeps its own
       persona, so no sifting happens;
    2. after a write to register X, run exactly one process that will read
       X — it adopts the value just written, and pairing each write with a
       single distinct reader spreads *different* personae to different
       readers instead of letting one writer convert many;
    3. otherwise run a writer.

    This inspects both pending operation kinds and register *contents*, so
    it models the content-aware adversary the paper's Section 5 warns
    about; the oblivious floor does not apply to it (experiment E18).
    """

    def __init__(self):
        self._last_write_target = None

    def choose(self, view: AdversaryView) -> int:
        candidates = view.unfinished()
        if not candidates:
            raise SimulationError("adversary consulted with no runnable process")
        empty_readers = []
        busy_readers = []
        writers = []
        for pid in candidates:
            operation = view.pending_operation(pid)
            kind = None if operation is None else operation.kind
            if kind in ("read", "scan", "maxread"):
                target = getattr(operation.obj, "value", None)
                if target is None:
                    empty_readers.append(pid)
                else:
                    busy_readers.append((pid, operation.obj))
            else:
                writers.append(pid)
        if empty_readers:
            return empty_readers[0]
        if self._last_write_target is not None:
            for pid, obj in busy_readers:
                if obj is self._last_write_target:
                    self._last_write_target = None
                    return pid
        if writers:
            chosen = writers[0]
            operation = view.pending_operation(chosen)
            self._last_write_target = operation.obj
            return chosen
        return busy_readers[0][0] if busy_readers else candidates[0]


#: Named adaptive strategies, for experiment sweeps and fuzz scenarios.
ADAPTIVE_FAMILIES = (
    "pending-reads",
    "pending-writes",
    "longest-first",
    "shortest-first",
    "random-adaptive",
    "sift-killer",
)

_READ_KINDS = ("read", "scan", "maxread")
_WRITE_KINDS = ("write", "update", "maxwrite")


def make_adaptive(name: str, seed: int = 0) -> AdaptiveAdversary:
    """Build the named adaptive strategy (see :data:`ADAPTIVE_FAMILIES`)."""
    if name == "pending-reads":
        return PendingKindAdversary(_READ_KINDS)
    if name == "pending-writes":
        return PendingKindAdversary(_WRITE_KINDS)
    if name == "longest-first":
        return LongestFirstAdversary()
    if name == "shortest-first":
        return ShortestFirstAdversary()
    if name == "random-adaptive":
        return RandomAdaptiveAdversary(seed)
    if name == "sift-killer":
        return SiftKillerAdversary()
    raise ConfigurationError(
        f"unknown adaptive adversary {name!r}; choose from {ADAPTIVE_FAMILIES}"
    )


@dataclass(frozen=True)
class AdaptiveSpec:
    """A serializable, hashable description of one adaptive adversary.

    The adaptive counterpart of
    :class:`~repro.workloads.schedules.ScheduleSpec`: pins the strategy
    name and its private seed so a fuzz scenario that used an adaptive
    adversary replays identically from its JSON form.
    """

    name: str
    seed: int = 0

    _JSON_VERSION = 1

    def __post_init__(self) -> None:
        if self.name not in ADAPTIVE_FAMILIES:
            raise ConfigurationError(
                f"unknown adaptive adversary {self.name!r}; choose from "
                f"{ADAPTIVE_FAMILIES}"
            )

    def build(self) -> AdaptiveAdversary:
        """Construct a fresh adversary instance (strategies are stateful)."""
        return make_adaptive(self.name, self.seed)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self._JSON_VERSION,
            "name": self.name,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "AdaptiveSpec":
        expect_versioned(
            data, "adaptive spec", cls._JSON_VERSION, key="version"
        )
        return cls(name=str(data["name"]), seed=int(data.get("seed", 0)))


class _Picks:
    """The pids an adaptive run's :class:`Simulator` steps, in place of a
    schedule.

    Each pid is the adversary's choice over an :class:`AdversaryView` of the
    simulator's own live-process and step-count dicts (bound to ``view``
    once the simulator exists), so every pick sees the state the loop left.
    The picks stop when no process is live; naming one that is not --
    finished, crashed or no such pid -- is an error, not a free slot.  This
    is deliberately not a :class:`~repro.runtime.scheduler.Schedule`: the
    benchmark's per-layer ledger times schedule slots and adversary picks
    as separate layers.
    """

    __slots__ = ("n", "choose", "view")
    view: AdversaryView

    def __init__(self, n: int, adversary: AdaptiveAdversary):
        self.n = n
        self.choose = adversary.choose

    def __iter__(self) -> Iterator[int]:
        view = self.view
        live = view._live
        choose = self.choose
        while live:
            pid = choose(view)
            if pid not in live:
                raise SimulationError(
                    f"adaptive adversary chose unrunnable process {pid}"
                )
            yield pid


def run_adaptive_programs(
    programs: Sequence[Program],
    adversary: AdaptiveAdversary,
    seeds: SeedTree,
    *,
    inputs: Optional[Sequence[Any]] = None,
    record_trace: bool = False,
    step_limit: int = 50_000_000,
    hooks: Sequence[StepHook] = (),
    skip_guard: Optional[int] = None,
) -> RunResult:
    """Execute programs under an adaptive adversary.

    The run goes through :class:`~repro.runtime.simulator.Simulator` and its
    one step loop, which asks the adversary for the next pid at every step
    instead of consuming a fixed schedule.  The adversary reads the
    simulator's live processes through an :class:`AdversaryView`; a process
    leaves the view when it finishes or crashes, and the run ends when none
    is left (subject to ``step_limit``).  A pick outside the view --
    finished, crashed or no such pid -- raises
    :class:`~repro.errors.SimulationError`.

    ``hooks`` are the same :class:`~repro.runtime.hooks.StepHook` instances
    oblivious runs take, dispatched by the same loop: fault injectors may
    crash a process (it disappears from the adversary's view) or withhold
    slots, and invariant monitors observe every charged step.
    ``skip_guard`` bounds consecutive withheld slots (at least 1; default
    ``max(10_000, 1_000 * n)``) -- an adversary that keeps naming a stalled
    process would otherwise spin forever.
    """
    processes = _build_processes(programs, seeds, inputs)
    n = len(processes)
    picks = _Picks(n, adversary)
    simulator = Simulator(
        processes,
        picks,  # type: ignore[arg-type]
        record_trace=record_trace,
        step_limit=step_limit,
        hooks=hooks,
        skip_guard=max(10_000, 1_000 * n) if skip_guard is None else skip_guard,
    )
    picks.view = AdversaryView(simulator._unfinished, simulator._steps_by_pid)
    return simulator.run()
