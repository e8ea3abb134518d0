"""Unit tests for the tree-based bounded max register ([7], footnote 1)."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.bounded_max_register import BoundedMaxRegister
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import (
    ExplicitSchedule,
    RandomSchedule,
    RoundRobinSchedule,
)
from repro.runtime.simulator import run_programs


def run_solo(script):
    """Run a single-process program over a fresh register."""

    def program(ctx):
        result = yield from script(ctx)
        return result

    return run_programs([program], RoundRobinSchedule(1), SeedTree(0))


class TestSequentialSemantics:
    def test_initially_zero(self):
        register = BoundedMaxRegister(8)

        def script(ctx):
            value = yield from register.read_program(ctx)
            return value

        assert run_solo(script).outputs[0] == 0

    def test_write_then_read(self):
        register = BoundedMaxRegister(8)

        def script(ctx):
            yield from register.write_program(ctx, 5)
            value = yield from register.read_program(ctx)
            return value

        assert run_solo(script).outputs[0] == 5

    def test_write_then_read_at_capacity_2_to_the_16(self):
        register = BoundedMaxRegister(2**16)

        def script(ctx):
            yield from register.write_program(ctx, 54_321)
            value = yield from register.read_program(ctx)
            return value

        assert run_solo(script).outputs[0] == 54_321

    def test_smaller_write_ignored(self):
        register = BoundedMaxRegister(8)

        def script(ctx):
            yield from register.write_program(ctx, 6)
            yield from register.write_program(ctx, 2)
            value = yield from register.read_program(ctx)
            return value

        assert run_solo(script).outputs[0] == 6

    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 8, 16, 33])
    def test_every_value_representable(self, capacity):
        for value in range(capacity):
            register = BoundedMaxRegister(capacity)

            def script(ctx, value=value):
                yield from register.write_program(ctx, value)
                result = yield from register.read_program(ctx)
                return result

            assert run_solo(script).outputs[0] == value

    def test_sequence_of_writes_tracks_running_max(self):
        register = BoundedMaxRegister(32)
        writes = [3, 17, 4, 30, 12, 31, 0]

        def script(ctx):
            observed = []
            for value in writes:
                yield from register.write_program(ctx, value)
                current = yield from register.read_program(ctx)
                observed.append(current)
            return observed

        expected = []
        best = 0
        for value in writes:
            best = max(best, value)
            expected.append(best)
        assert run_solo(script).outputs[0] == expected

    def test_rejects_out_of_range(self):
        register = BoundedMaxRegister(4)

        def script(ctx):
            yield from register.write_program(ctx, 4)

        with pytest.raises(ConfigurationError):
            run_solo(script)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            BoundedMaxRegister(0)


class TestCostBounds:
    @pytest.mark.parametrize("capacity,depth", [(1, 0), (2, 1), (8, 3),
                                                (9, 4), (1024, 10)])
    def test_depth(self, capacity, depth):
        assert BoundedMaxRegister(capacity).depth == depth

    def test_step_bounds_hold_in_execution(self):
        register = BoundedMaxRegister(64)

        def writer(ctx):
            yield from register.write_program(ctx, 63)
            return "ok"

        def reader(ctx):
            value = yield from register.read_program(ctx)
            return value

        result = run_programs(
            [writer, reader], RoundRobinSchedule(2), SeedTree(1)
        )
        assert result.steps_by_pid[0] <= register.write_step_bound()
        assert result.steps_by_pid[1] <= register.read_step_bound()

    def test_logarithmic_growth(self):
        costs = [BoundedMaxRegister(2**k).write_step_bound()
                 for k in (2, 4, 8, 16)]
        # 2*depth: doubling the exponent doubles the cost — log k growth.
        assert costs == [4, 8, 16, 32]


class TestConcurrentSemantics:
    def test_concurrent_writers_reader_sees_plausible_max(self):
        for seed in range(20):
            register = BoundedMaxRegister(16)
            values = [3, 11, 7, 14]

            def writer(ctx):
                yield from register.write_program(ctx, values[ctx.pid])
                result = yield from register.read_program(ctx)
                return result

            result = run_programs(
                [writer] * 4, RandomSchedule(4, seed), SeedTree(seed)
            )
            for pid in range(4):
                observed = result.outputs[pid]
                # Own write completed before own read: observed >= own value;
                # and never exceeds the global max.
                assert values[pid] <= observed <= max(values), (seed, pid)

    def test_sequential_processes_monotone_reads(self):
        register = BoundedMaxRegister(16)

        def program(ctx):
            yield from register.write_program(ctx, 5 * ctx.pid + 1)
            value = yield from register.read_program(ctx)
            return value

        # Strictly sequential: each process's read happens after the
        # previous process's write, so reads are non-decreasing in pid.
        slots = [pid for pid in range(3) for _ in range(12)]
        result = run_programs(
            [program] * 3, ExplicitSchedule(slots, n=3), SeedTree(2)
        )
        reads = [result.outputs[pid] for pid in range(3)]
        assert reads == sorted(reads)
        assert reads[2] == 11

    def test_abandoned_low_write_is_safe(self):
        # Writer of a small value racing a large value must not resurrect
        # the small one.
        register = BoundedMaxRegister(8)

        def big(ctx):
            yield from register.write_program(ctx, 7)
            return "done"

        def small(ctx):
            yield from register.write_program(ctx, 1)
            value = yield from register.read_program(ctx)
            return value

        # big completes fully, then small runs: small's write must abandon
        # at the root switch and its read must return 7.
        slots = [0] * 10 + [1] * 10
        result = run_programs(
            [big, small], ExplicitSchedule(slots, n=2), SeedTree(3)
        )
        assert result.outputs[1] == 7
