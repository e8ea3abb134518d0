"""Unit tests for trace recording and semantics checkers."""

import pytest

from repro.errors import ProtocolViolationError
from repro.runtime.trace import (
    TraceEvent,
    TraceRecorder,
    check_max_register_semantics,
    check_register_semantics,
    check_snapshot_semantics,
)


def event(step, pid, kind, obj_name="r", value=None, result=None):
    return TraceEvent(step=step, pid=pid, kind=kind, obj_name=obj_name,
                      value=value, result=result)


class TestTraceRecorder:
    def test_records_in_order(self):
        recorder = TraceRecorder()
        recorder.record(event(0, 0, "write", value=1))
        recorder.record(event(1, 1, "read", result=1))
        assert len(recorder) == 2
        assert recorder.events[0].kind == "write"

    def test_filter_by_object(self):
        recorder = TraceRecorder()
        recorder.record(event(0, 0, "write", obj_name="a"))
        recorder.record(event(1, 0, "write", obj_name="b"))
        assert len(recorder.for_object("a")) == 1

    def test_filter_by_pid(self):
        recorder = TraceRecorder()
        recorder.record(event(0, 0, "write"))
        recorder.record(event(1, 1, "write"))
        assert len(recorder.for_pid(1)) == 1


class TestTraceEventValue:
    """A tuple underneath, with the frozen-dataclass interface it had."""

    def test_repr(self):
        assert repr(event(3, 1, "write", obj_name="r[0]", value=(1, "a"))) == (
            "TraceEvent(step=3, pid=1, kind='write', obj_name='r[0]', "
            "value=(1, 'a'), result=None)"
        )

    def test_equality_is_by_fields_and_type(self):
        first = event(0, 1, "read", result=5)
        assert first == event(0, 1, "read", result=5)
        assert not first != event(0, 1, "read", result=5)
        assert first != event(0, 1, "read", result=6)
        items = (0, 1, "read", "r", None, 5)
        assert tuple(first) == items
        # A bare tuple with the same items is not an event, either way round.
        assert first != items and items != first
        assert not first == items and not items == first
        assert first != 0

    def test_hash_is_the_hash_of_the_fields(self):
        first = event(0, 1, "read", result=5)
        assert hash(first) == hash((0, 1, "read", "r", None, 5))
        assert len({first, event(0, 1, "read", result=5)}) == 1

    def test_is_immutable(self):
        first = event(0, 1, "read")
        with pytest.raises(AttributeError):
            first.pid = 2
        with pytest.raises(AttributeError):
            first.extra = 1
        assert first.pid == 1

    def test_dataclass_introspection(self):
        import dataclasses

        first = event(0, 1, "write", value=[1, 2])
        assert dataclasses.is_dataclass(first)
        assert [f.name for f in dataclasses.fields(TraceEvent)] == [
            "step", "pid", "kind", "obj_name", "value", "result"]
        assert dataclasses.astuple(first) == (0, 1, "write", "r", [1, 2], None)
        assert dataclasses.asdict(first)["value"] == [1, 2]
        assert dataclasses.replace(first, pid=4) == event(
            0, 4, "write", value=[1, 2])


class TestRegisterChecker:
    def test_accepts_valid_history(self):
        events = [
            event(0, 0, "read", result=None),
            event(1, 0, "write", value=3),
            event(2, 1, "read", result=3),
            event(3, 1, "write", value=4),
            event(4, 0, "read", result=4),
        ]
        check_register_semantics(events)

    def test_rejects_stale_read(self):
        events = [
            event(0, 0, "write", value=3),
            event(1, 1, "read", result=None),
        ]
        with pytest.raises(ProtocolViolationError, match="read at step 1"):
            check_register_semantics(events)

    def test_respects_initial_value(self):
        events = [event(0, 0, "read", result="init")]
        check_register_semantics(events, initial="init")


class TestSnapshotChecker:
    def test_accepts_valid_history(self):
        events = [
            event(0, 0, "update", value="x"),
            event(1, 1, "scan", result=("x", None)),
            event(2, 1, "update", value="y"),
            event(3, 0, "scan", result=("x", "y")),
        ]
        check_snapshot_semantics(events, n=2)

    def test_rejects_wrong_view(self):
        events = [
            event(0, 0, "update", value="x"),
            event(1, 1, "scan", result=(None, None)),
        ]
        with pytest.raises(ProtocolViolationError, match="scan at step 1"):
            check_snapshot_semantics(events, n=2)

    def test_rejects_view_that_drops_a_seen_component(self):
        """Views that fail to nest are caught by the equality check: the
        second scan loses the component the first one saw."""
        events = [
            event(0, 0, "update", value="x"),
            event(1, 1, "scan", result=("x", None)),
            event(2, 1, "scan", result=(None, None)),
        ]
        with pytest.raises(ProtocolViolationError, match="scan at step 2"):
            check_snapshot_semantics(events, n=2)


class TestMaxRegisterChecker:
    def test_accepts_monotone_history(self):
        events = [
            event(0, 0, "maxwrite", value=2),
            event(1, 1, "maxwrite", value=1),
            event(2, 1, "maxread", result=2),
        ]
        check_max_register_semantics(events)

    def test_rejects_non_max_read(self):
        events = [
            event(0, 0, "maxwrite", value=2),
            event(1, 1, "maxread", result=1),
        ]
        with pytest.raises(ProtocolViolationError):
            check_max_register_semantics(events)


class TestSimulatedTracesSatisfyCheckers:
    def test_full_run_trace_passes_register_checker(self):
        from repro.memory.register import AtomicRegister
        from repro.runtime.operations import Read, Write
        from repro.runtime.rng import SeedTree
        from repro.runtime.scheduler import RandomSchedule
        from repro.runtime.simulator import run_programs

        register = AtomicRegister("shared")

        def program(ctx):
            yield Write(register, ctx.pid)
            value = yield Read(register)
            yield Write(register, value)
            return value

        result = run_programs(
            [program] * 4,
            RandomSchedule(4, 123),
            SeedTree(9),
            record_trace=True,
        )
        check_register_semantics(result.trace.for_object("shared"))

    def test_full_run_trace_passes_snapshot_checker(self):
        from repro.memory.snapshot import SnapshotObject
        from repro.runtime.operations import Scan, Update
        from repro.runtime.rng import SeedTree
        from repro.runtime.scheduler import RandomSchedule
        from repro.runtime.simulator import run_programs

        snapshot = SnapshotObject(4, "A")

        def program(ctx):
            yield Update(snapshot, ctx.pid * 10)
            view = yield Scan(snapshot)
            return view

        result = run_programs(
            [program] * 4,
            RandomSchedule(4, 321),
            SeedTree(9),
            record_trace=True,
        )
        check_snapshot_semantics(result.trace.for_object("A"), n=4)
