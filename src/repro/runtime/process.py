"""Process abstraction: a generator-based protocol participant.

A *program* is a callable ``program(ctx) -> Generator[Operation, Any, T]``
where ``ctx`` is the process's :class:`ProcessContext`.  The generator yields
:class:`~repro.runtime.operations.Operation` requests and eventually returns
its output value (via ``return``, captured from ``StopIteration``).

Local computation between yields is free, matching the paper's step measure,
which charges only shared-memory operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, NoReturn, Optional

from repro.errors import SimulationError
from repro.runtime.operations import Operation

__all__ = ["ProcessContext", "Process", "Program"]

Program = Callable[["ProcessContext"], Generator[Operation, Any, Any]]


@dataclass(slots=True)
class ProcessContext:
    """Everything a protocol program may legitimately observe locally.

    Slotted: one is built per process per trial, and protocols read its
    fields on their hot paths.

    Attributes:
        pid: this process's id in ``range(n)``.
        n: the total number of processes.
        rng: this process's private random stream.  It is derived from the
            ``"algorithm"`` branch of the run's seed tree, so it is
            independent of the adversary's schedule by construction.
        input_value: the process's input (``None`` for input-free protocols).
    """

    pid: int
    n: int
    rng: random.Random
    input_value: Any = None


class Process:
    """Wraps a protocol program generator and tracks its lifecycle.

    The simulator drives a :class:`Process` through three phases:

    1. :meth:`start` primes the generator, running the program's local prefix
       up to its first operation request (local code is free);
    2. repeated :meth:`complete_step` calls deliver operation results and run
       the program to its next request;
    3. when the generator returns, the process is *finished* and its return
       value becomes :attr:`output`.

    A process that raises is a bug in the protocol, not an adversary move, so
    exceptions propagate wrapped in :class:`SimulationError`.

    The state the step loop reads on every slot is held in plain slots
    rather than properties; treat them as read-only.

    Attributes:
        finished: True once the program has returned.
        output: the program's return value; only meaningful once finished.
        pending_operation: the operation this process will execute at its
            next step (``None`` before :meth:`start` and once finished).
    """

    __slots__ = ("context", "finished", "output", "pending_operation",
                 "_program", "_generator")

    def __init__(self, context: ProcessContext, program: Program):
        self.context = context
        self.finished = False
        self.output: Any = None
        self.pending_operation: Optional[Operation] = None
        self._program = program
        self._generator: Optional[Generator[Operation, Any, Any]] = None

    @property
    def pid(self) -> int:
        return self.context.pid

    @property
    def started(self) -> bool:
        return self._generator is not None or self.finished

    def start(self) -> None:
        """Prime the program up to its first operation request."""
        if self._generator is not None or self.finished:
            raise SimulationError(f"process {self.pid} started twice")
        generator = self._program(self.context)
        try:
            first = next(generator)
        except StopIteration as stop:
            # A program may finish without touching shared memory at all
            # (zero steps); this is legal, if unusual.
            self._finish(stop.value)
            return
        self._generator = generator
        if not isinstance(first, Operation):
            self._reject(first)
        self.pending_operation = first

    def complete_step(self, result: Any) -> None:
        """Deliver ``result`` for the pending operation and advance.

        Called by the simulator immediately after it executed the pending
        operation atomically.  Runs the program's local code up to its next
        operation request (or its return).
        """
        generator = self._generator
        if generator is None:  # never started, or already finished
            raise SimulationError(
                f"process {self.pid} received a step result while not running"
            )
        try:
            nxt = generator.send(result)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if not isinstance(nxt, Operation):
            self._reject(nxt)
        self.pending_operation = nxt

    def _reject(self, value: Any) -> NoReturn:
        raise SimulationError(
            f"process {self.pid} yielded {value!r}, which is not an "
            "Operation; protocol programs must yield operation requests"
        )

    def _finish(self, output: Any) -> None:
        self.finished = True
        self.output = output
        self.pending_operation = None
        self._generator = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else ("running" if self.started else "new")
        return f"Process(pid={self.pid}, state={state})"
