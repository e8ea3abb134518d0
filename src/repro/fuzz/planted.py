"""Deliberately buggy stacks that calibrate the fuzzer's oracles.

A fuzzer that has never caught anything proves nothing.  Each class here
sabotages one protocol with one classic bug — fabricating an output value,
spinning forever, skipping the adopt-commit's confirming conflict pass —
chosen so that exactly one oracle family (validity, wait-freedom/termination,
coherence) is responsible for catching it.  The integration suite runs a
campaign restricted to these stacks and asserts each bug is found *and*
shrinks to a minimal corpus reproducer.

Planted stacks are registered with ``planted=True`` so honest campaigns
never draw them; they must be opted into by name.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.adoptcommit.base import ADOPT, COMMIT, AdoptCommitResult
from repro.adoptcommit.encoders import DomainEncoder
from repro.adoptcommit.flag_ac import FlagAdoptCommit
from repro.core.persona import Persona
from repro.core.sifting_conciliator import SiftingConciliator
from repro.fuzz.stacks import (
    ADOPT_COMMIT,
    CONCILIATOR,
    CONSENSUS,
    BuiltStack,
    StackSpec,
    _adopt_commit_stack,
    _domain,
    register_stack,
)
from repro.memory.register import AtomicRegister
from repro.runtime.operations import Operation, Read, Write
from repro.runtime.process import ProcessContext

__all__ = [
    "CorruptingConciliator",
    "LoopingConciliator",
    "EagerCommitAdoptCommit",
    "PLANTED_STACKS",
]

#: The fabricated value the validity bug emits; never a legal input.
CORRUPT_VALUE = "planted-corrupt"


class CorruptingConciliator(SiftingConciliator):
    """Validity bug: sometimes returns a value nobody proposed.

    Each process flips a private coin after the honest protocol finishes
    and, on heads, replaces the surviving persona's value with a fabricated
    constant.  The validity oracle must flag it; nothing else should.
    """

    def persona_program(
        self, ctx: ProcessContext, input_value: Any
    ) -> Generator[Operation, Any, Persona]:
        persona = yield from super().persona_program(ctx, input_value)
        if ctx.rng.random() < 0.5:
            return Persona(
                value=CORRUPT_VALUE, origin=persona.origin, coin=persona.coin
            )
        return persona


class LoopingConciliator(SiftingConciliator):
    """Wait-freedom bug: process 0 re-reads one register forever.

    The honest path costs ``rounds`` steps, but pid 0 never leaves its spin
    loop, so the wait-freedom watchdog fires as soon as its step budget is
    exhausted and the run eventually hits the step limit (a termination
    violation) under infinite schedules.
    """

    def __init__(self, n: int, name: str = "looping-conciliator"):
        super().__init__(n, name=name)
        self._trap = AtomicRegister(f"{name}.trap")

    def persona_program(
        self, ctx: ProcessContext, input_value: Any
    ) -> Generator[Operation, Any, Persona]:
        if ctx.pid == 0:
            while True:
                yield Read(self._trap)
        persona = yield from super().persona_program(ctx, input_value)
        return persona


class EagerCommitAdoptCommit(FlagAdoptCommit):
    """Coherence bug: commits without the confirming second conflict pass.

    The classic TOCTTOU race: two processes can both observe a clean first
    pass, both write the proposal register, and both commit different
    values.  Only some interleavings expose it, which is exactly what a
    fuzzer sweeping random schedules is for.
    """

    def invoke(
        self, ctx: ProcessContext, value: Any
    ) -> Generator[Operation, Any, AdoptCommitResult]:
        digits = self.encoder.encode(value)
        for position, digit in enumerate(digits):
            yield Write(self._flags[position][digit], True)
        conflict = yield from self._conflict_pass(digits)
        if conflict:
            proposed = yield Read(self._proposal)
            if proposed is not None:
                return AdoptCommitResult(ADOPT, proposed)
            return AdoptCommitResult(ADOPT, value)
        yield Write(self._proposal, value)
        # BUG: the confirming second pass is missing — commit immediately.
        return AdoptCommitResult(COMMIT, value)


def _looping_stack(n: int, inputs: Any) -> BuiltStack:
    conciliator = LoopingConciliator(n)
    # A deliberately tight budget: the honest path finishes well inside it,
    # so any overrun is the planted spin loop.
    return BuiltStack(
        [conciliator.program] * n, conciliator.step_bound() + 4, True,
        conciliator=conciliator,
    )


def _corrupting_stack(n: int, inputs: Any) -> BuiltStack:
    conciliator = CorruptingConciliator(n)
    return BuiltStack(
        [conciliator.program] * n, conciliator.step_bound(), True,
        conciliator=conciliator,
    )


def _agreement_stack(n: int, inputs: Any) -> BuiltStack:
    # Agreement bug: a "consensus" that decides the bare conciliator output,
    # skipping the adopt-commit confirmation entirely.  A conciliator only
    # promises *probabilistic* agreement, so schedules where two personae
    # survive every sifting round decide two values — exactly what the
    # agreement oracle (applied to CONSENSUS stacks) must flag.
    conciliator = SiftingConciliator(n, name="planted-agreement")
    return BuiltStack(
        [conciliator.program] * n, conciliator.step_bound(), True,
        conciliator=conciliator,
    )


PLANTED_STACKS = (
    register_stack(StackSpec(
        "planted-validity", CONCILIATOR, _corrupting_stack, planted=True,
    )),
    register_stack(StackSpec(
        "planted-termination", CONCILIATOR, _looping_stack, planted=True,
    )),
    register_stack(StackSpec(
        "planted-coherence", ADOPT_COMMIT,
        _adopt_commit_stack(
            lambda n, inputs: EagerCommitAdoptCommit(
                n, DomainEncoder(_domain(inputs))
            )
        ),
        planted=True,
    )),
    register_stack(StackSpec(
        "planted-agreement", CONSENSUS, _agreement_stack, planted=True,
        attribution=("sifting", 0.5),
    )),
)
