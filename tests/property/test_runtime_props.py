"""Property tests for the runtime: schedules, seed tree, simulator."""

from hypothesis import given, settings, strategies as st

from repro.memory.register import AtomicRegister
from repro.runtime.operations import Read, Write
from repro.runtime.rng import SeedTree, derive_seed
from repro.runtime.scheduler import (
    BlockSchedule,
    CrashSchedule,
    LimitedSchedule,
    RandomSchedule,
    RoundRobinSchedule,
)
from repro.runtime.simulator import run_programs

labels = st.text(min_size=0, max_size=12)


class TestSeedTreeProperties:
    @given(st.integers(min_value=0, max_value=2**62), labels, labels)
    @settings(max_examples=100, deadline=None)
    def test_distinct_labels_distinct_seeds(self, master, a, b):
        if a == b:
            assert derive_seed(master, a) == derive_seed(master, b)
        else:
            assert derive_seed(master, a) != derive_seed(master, b)

    @given(st.integers(min_value=0, max_value=2**62), labels)
    @settings(max_examples=60, deadline=None)
    def test_child_streams_reproducible(self, master, label):
        one = SeedTree(master).child(label).rng().getrandbits(64)
        two = SeedTree(master).child(label).rng().getrandbits(64)
        assert one == two


class TestScheduleProperties:
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=60, deadline=None)
    def test_random_schedule_range_and_determinism(self, n, seed):
        schedule = RandomSchedule(n, seed)
        slots = schedule.take(100)
        assert all(0 <= pid < n for pid in slots)
        assert slots == schedule.take(100)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=60, deadline=None)
    def test_block_schedule_block_structure(self, n, block, seed):
        slots = BlockSchedule(n, block, seed).take(block * 10)
        for start in range(0, len(slots), block):
            assert len(set(slots[start:start + block])) == 1

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=60, deadline=None)
    def test_crash_budget_respected(self, n, budget, seed):
        schedule = CrashSchedule(RandomSchedule(n, seed), {0: budget})
        slots = schedule.take(500)
        assert slots.count(0) <= budget

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_limited_length(self, n, limit):
        assert len(LimitedSchedule(RoundRobinSchedule(n), limit).take(1000)) == limit


class TestSimulatorProperties:
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=40, deadline=None)
    def test_every_process_charged_its_own_operations(self, n, seed):
        register = AtomicRegister("r")

        def program(ctx):
            yield Write(register, ctx.pid)
            yield Read(register)
            yield Write(register, ctx.pid)
            return ctx.pid

        result = run_programs(
            [program] * n, RandomSchedule(n, seed), SeedTree(seed)
        )
        assert result.completed
        assert all(steps == 3 for steps in result.steps_by_pid.values())
        assert result.outputs == {pid: pid for pid in range(n)}

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=40, deadline=None)
    def test_trace_length_equals_total_steps(self, n, seed):
        register = AtomicRegister("r")

        def program(ctx):
            yield Write(register, ctx.pid)
            value = yield Read(register)
            return value

        result = run_programs(
            [program] * n,
            RandomSchedule(n, seed),
            SeedTree(seed),
            record_trace=True,
        )
        assert len(result.trace) == result.total_steps

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=40, deadline=None)
    def test_rerun_identical(self, n, seed):
        def make_register_and_run():
            register = AtomicRegister("r")

            def program(ctx):
                if ctx.rng.random() < 0.5:
                    yield Write(register, ctx.pid)
                value = yield Read(register)
                return value

            return run_programs(
                [program] * n, RandomSchedule(n, seed), SeedTree(seed)
            )

        one = make_register_and_run()
        two = make_register_and_run()
        assert one.outputs == two.outputs
        assert one.steps_by_pid == two.steps_by_pid
