"""Trace-level checks: shared objects behave atomically during real runs.

Full protocol executions are traced and replayed through the sequential
semantics checkers; the snapshot view-nesting property (which Lemma 1's
proof relies on) is verified on the actual arrays Algorithm 1 used.
"""

from repro.core.cil_embedded import CILEmbeddedConciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import BlockSchedule, RandomSchedule
from repro.runtime.simulator import run_programs
from repro.runtime.trace import (
    check_max_register_semantics,
    check_register_semantics,
    check_snapshot_semantics,
)


def traced_run(conciliator, n, seed, schedule=None):
    seeds = SeedTree(seed)
    if schedule is None:
        schedule = RandomSchedule(n, seeds.child("schedule").seed)
    programs = [conciliator.program] * n
    return run_programs(
        programs, schedule, seeds, inputs=list(range(n)), record_trace=True
    )


class TestSnapshotConciliatorTraces:
    def test_every_round_array_is_a_correct_snapshot(self):
        n = 8
        conciliator = SnapshotConciliator(n)
        result = traced_run(conciliator, n, seed=1)
        for round_index in range(conciliator.rounds):
            events = result.trace.for_object(f"snapshot-conciliator.A[{round_index}]")
            assert events, round_index
            check_snapshot_semantics(events, n=n)

    def test_views_nest_in_every_round(self):
        n = 8
        conciliator = SnapshotConciliator(n)
        traced_run(conciliator, n, seed=2, schedule=None)
        for array in conciliator._arrays:
            assert array.views_nest()

    def test_max_register_traces_are_monotone(self):
        n = 8
        conciliator = SnapshotConciliator(n, use_max_registers=True)
        result = traced_run(conciliator, n, seed=3)
        for round_index in range(conciliator.rounds):
            events = result.trace.for_object(
                f"snapshot-conciliator.M[{round_index}]"
            )
            check_max_register_semantics(events)

    def test_exact_operation_mix(self):
        n = 6
        conciliator = SnapshotConciliator(n)
        result = traced_run(conciliator, n, seed=4)
        kinds = [event.kind for event in result.trace.events]
        assert kinds.count("update") == n * conciliator.rounds
        assert kinds.count("scan") == n * conciliator.rounds


class TestSiftingConciliatorTraces:
    def test_round_registers_behave_atomically(self):
        n = 16
        conciliator = SiftingConciliator(n)
        result = traced_run(conciliator, n, seed=5)
        for index in conciliator.registers.allocated():
            events = result.trace.for_object(f"sifting-conciliator.r[{index}]")
            check_register_semantics(events)

    def test_exactly_one_operation_per_register_per_process(self):
        n = 8
        conciliator = SiftingConciliator(n)
        result = traced_run(conciliator, n, seed=6)
        assert len(result.trace.events) == n * conciliator.rounds

    def test_block_adversary_traces_also_pass(self):
        n = 8
        conciliator = SiftingConciliator(n)
        seeds = SeedTree(7)
        schedule = BlockSchedule(n, 4, seeds.child("schedule").seed)
        result = traced_run(conciliator, n, seed=7, schedule=schedule)
        for index in conciliator.registers.allocated():
            check_register_semantics(
                result.trace.for_object(f"sifting-conciliator.r[{index}]")
            )


class TestEmbeddedConciliatorTraces:
    def test_all_registers_atomic(self):
        n = 8
        conciliator = CILEmbeddedConciliator(n)
        result = traced_run(conciliator, n, seed=8)
        register_names = {
            event.obj_name
            for event in result.trace.events
            if event.kind in ("read", "write")
        }
        for name in register_names:
            # Conflict-detector flag registers start at False, not None.
            initial = False if ".flag[" in name else None
            check_register_semantics(
                result.trace.for_object(name), initial=initial
            )

    def test_proposal_write_happens_at_most_once_per_exit(self):
        n = 8
        conciliator = CILEmbeddedConciliator(n)
        result = traced_run(conciliator, n, seed=9)
        proposal_writes = [
            event
            for event in result.trace.events
            if event.obj_name == "cil-embedded.proposal" and event.kind == "write"
        ]
        # Each process writes proposal at most once (then leaves the loop).
        writers = [event.pid for event in proposal_writes]
        assert len(writers) == len(set(writers))
