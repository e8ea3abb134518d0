"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError`, so callers can
catch one type at an API boundary.  Simulation errors are deliberately loud:
a distributed algorithm that silently misbehaves is worse than one that
crashes, because the whole point of a reproduction is to observe faithful
behaviour.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional

__all__ = [
    "ReproError",
    "SimulationError",
    "ScheduleExhaustedError",
    "StepLimitExceededError",
    "ProtocolViolationError",
    "InvalidOperationError",
    "ConfigurationError",
    "CheckpointError",
    "BudgetExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An error occurred while executing a simulated run."""


class _DiagnosableRunError(SimulationError):
    """A run failure that carries enough state to diagnose from logs alone.

    Fault sweeps run unattended for hours; when one dies, the exception text
    (and these structured attributes) must say *which* processes were stuck
    and how far each one got, without re-running anything.
    """

    def __init__(
        self,
        message: str,
        *,
        unfinished_pids: Optional[Collection[int]] = None,
        steps_by_pid: Optional[Dict[int, int]] = None,
    ):
        self.unfinished_pids = (
            tuple(sorted(unfinished_pids)) if unfinished_pids else ()
        )
        self.steps_by_pid = dict(steps_by_pid) if steps_by_pid else {}
        if self.unfinished_pids:
            message += f" [unfinished pids: {list(self.unfinished_pids)}]"
        if self.steps_by_pid:
            executed = {pid: self.steps_by_pid[pid] for pid in sorted(self.steps_by_pid)}
            message += f" [steps executed: {executed}]"
        super().__init__(message)


class ScheduleExhaustedError(_DiagnosableRunError):
    """The adversary's schedule ended before every process finished.

    A finite schedule is a legitimate adversary choice (the model allows
    starvation), but most callers expect runs to complete, so exhaustion is
    reported explicitly rather than returning partial results silently.
    Callers that want partial runs pass ``allow_partial=True`` to
    :meth:`repro.runtime.simulator.Simulator.run`.
    """


class StepLimitExceededError(_DiagnosableRunError):
    """A safety valve tripped: the run exceeded its configured step budget."""


class ProtocolViolationError(ReproError):
    """An algorithm violated one of its specified invariants.

    Raised, for example, when a conciliator would return a value that is not
    any process's input (validity) or when an adopt-commit object would
    break coherence.  These checks guard the reproduction itself.
    """


class InvalidOperationError(SimulationError):
    """A process issued an operation that its target object does not support."""


class ConfigurationError(ReproError):
    """Invalid parameters were supplied to a protocol or experiment."""


class BudgetExceededError(ReproError):
    """A wall-clock or evaluation budget ran out before the work finished.

    Raised by the chaos fuzzer's per-trial deadline hook and by budgeted
    searches.  Unlike :class:`StepLimitExceededError` this is not evidence
    of a protocol bug: it marks work that was *cut short* so a campaign can
    record the fact and move on instead of hanging.
    """


class CheckpointError(ReproError):
    """A sweep checkpoint journal is corrupt or inconsistent with the run.

    Raised when a journal's integrity hash chain does not verify, or when a
    resume attempt supplies a configuration (run key, trial count, chunk
    size) that differs from the one the journal was written under.  Silently
    mixing incompatible sweeps would be worse than failing: the whole point
    of the journal is bit-identical resumption.
    """
