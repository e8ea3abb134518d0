"""The step-hook protocol the simulator's step loop speaks.

At every scheduled slot the :class:`~repro.runtime.simulator.Simulator`
consults its hooks: a hook may withhold the slot (:data:`SKIP`),
fail-stop the process (:data:`CRASH`), replace the operation's result
(:class:`InterceptedResult`), or only observe.  Fault injectors
(:mod:`repro.runtime.faults`), invariant monitors
(:mod:`repro.runtime.monitors`), the step budget, trace and metrics
recorders and the weak-register semantics all subclass :class:`StepHook`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.runtime.operations import Operation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.runtime.results import RunResult
    from repro.runtime.simulator import Simulator

__all__ = [
    "CRASH",
    "EXECUTE",
    "HOOK_STAGES",
    "SKIP",
    "InterceptedResult",
    "StepHook",
    "hook_methods",
]

# Slot decisions a hook may return from :meth:`StepHook.before_step`.
EXECUTE = "execute"
SKIP = "skip"
CRASH = "crash"


class StepHook:
    """Observer/interceptor interface the simulator consults at every step.

    Fault injectors and invariant monitors both subclass this.  All methods
    are no-ops by default, and overriding a method is how a hook subscribes
    to it: at run start the step loop keeps, per callback, only the hooks
    whose method is not the default here (see :func:`hook_methods`), so a
    hook pays for the callbacks it overrides and nothing else.  Hooks
    must not touch shared objects directly: they observe operations and
    results, and may only influence execution through the documented return
    values (``before_step`` slot decisions and ``intercept`` overrides).
    """

    def on_run_start(self, simulator: "Simulator") -> None:
        """Called once before the first slot is consumed."""

    def before_step(
        self,
        pid: int,
        process_steps: int,
        global_steps: int,
        operation: Optional[Operation],
    ) -> Optional[str]:
        """Decide what happens to this slot.

        Args:
            pid: the scheduled process.
            process_steps: charged steps ``pid`` has executed so far.
            global_steps: charged steps executed by everyone so far.
            operation: the operation ``pid`` would execute.

        Returns ``None`` (or :data:`EXECUTE`) to let the step run,
        :data:`SKIP` to withhold the slot (starvation), or :data:`CRASH` to
        fail-stop the process permanently.
        """
        return None

    def intercept(
        self, pid: int, operation: Operation
    ) -> Optional["InterceptedResult"]:
        """Optionally replace the operation's execution entirely.

        Returning an :class:`InterceptedResult` prevents the target object
        from being touched and delivers ``.value`` to the process instead —
        this is how out-of-model register faults are realized.  Returning
        ``None`` executes the operation normally.
        """
        return None

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        """Called after each charged step with the (possibly faulty) result."""

    def on_skip(self, pid: int, global_steps: int) -> None:
        """Called when a slot is withheld (stalled) by fault injection.

        Free no-op slots of finished or crashed processes do not trigger
        this — they are not events in the model, merely slots the
        adversary wasted.
        """

    def on_crash(self, pid: int, steps_taken: int) -> None:
        """Called once when a process is fail-stopped by a fault."""

    def on_finish(self, pid: int, output: Any) -> None:
        """Called once when a process finishes with its output value."""

    def on_run_end(self, result: "RunResult") -> None:
        """Called once with the final :class:`RunResult`."""


#: The :class:`StepHook` callbacks, in lifecycle order.
HOOK_STAGES = (
    "on_run_start", "before_step", "intercept", "after_step", "on_skip",
    "on_crash", "on_finish", "on_run_end",
)


def _unwrapped(function: Any) -> Any:
    """``function`` with every ``__wrapped__`` layer peeled off."""
    while hasattr(function, "__wrapped__"):
        function = function.__wrapped__
    return function


#: Each stage's :class:`StepHook` default, unwrapped once.
_DEFAULTS = {
    stage: _unwrapped(getattr(StepHook, stage)) for stage in HOOK_STAGES
}


def hook_methods(hooks: Sequence[Any], stage: str) -> List[Callable[..., Any]]:
    """The bound ``stage`` methods of the hooks that override it, in order.

    A method is left out when it is still :class:`StepHook`'s no-op
    default.  The test looks at the method the *instance* resolves, so an
    instance attribute replacing a method counts as an override, and a
    duck-typed hook contributes every method it defines.  Both sides are
    unwrapped through ``__wrapped__`` first: a timing wrapper around an
    inherited default is still the default.
    """
    methods: List[Callable[..., Any]] = []
    if not hooks:
        return methods
    default = _DEFAULTS[stage]
    for hook in hooks:
        method = getattr(hook, stage, None)
        if method is None:
            continue
        function = getattr(method, "__func__", method)
        if function is not default and _unwrapped(function) is not default:
            methods.append(method)
    return methods


def _note_hook_failure(
    error: BaseException,
    hooks: Sequence[Any],
    method: Callable[..., Any],
    stage: str,
    *,
    pid: Optional[int] = None,
    global_step: Optional[int] = None,
) -> None:
    """Attach who/where context to an exception escaping hook ``method``.

    Fuzz campaigns surface hook failures (including strict monitor
    violations) far from the run that produced them; the note pins the hook
    class, lifecycle stage, pid, and global step so the failure is
    diagnosable from the traceback alone.  The hook is looked up among
    ``hooks`` (this is the failure path, so the scan costs nothing that
    matters), which also names a hook whose method is an instance
    attribute with no ``__self__``.
    """
    owner = next((hook for hook in hooks if getattr(hook, stage, None) == method),
                 getattr(method, "__self__", method))
    where = [f"in {type(owner).__name__}.{stage}"]
    if pid is not None:
        where.append(f"pid={pid}")
    if global_step is not None:
        where.append(f"global step={global_step}")
    error.add_note("raised " + ", ".join(where))


@dataclass(frozen=True)
class InterceptedResult:
    """Wrapper distinguishing "replace the result with X" from "no opinion"."""

    value: Any
