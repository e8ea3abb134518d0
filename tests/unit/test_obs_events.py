"""Unit tests for structured trace events and the TraceRecorder hook."""

import pytest

from repro.core.conciliator import run_conciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.errors import ConfigurationError
from repro.obs.events import (
    EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    TraceEventRecord,
    dumps_event,
    event_from_json,
    event_to_json,
    loads_event,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.tracing import TraceRecorder
from repro.runtime.faults import CrashFault, FaultPlan, StallFault
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.workloads.schedules import make_schedule


def _spin(ops):
    from repro.memory.register import AtomicRegister
    from repro.runtime.operations import Read, Write

    def program(ctx):
        reg = AtomicRegister(name=f"spin[{ctx.pid}]")
        for i in range(ops):
            yield Write(reg, i)
            yield Read(reg)
        return ctx.pid

    return program


def _run_traced(n=3, ops=4, hooks=()):
    seeds = SeedTree(11)
    schedule = make_schedule("random", n, seeds.child("schedule"))
    recorder = TraceRecorder()
    run_programs(
        [_spin(ops)] * n, schedule, seeds,
        hooks=[recorder, *hooks], allow_partial=bool(hooks),
    )
    return recorder


class TestEventRecord:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown trace event"):
            TraceEventRecord(kind="banana")

    def test_every_kind_constructs(self):
        for kind in EVENT_KINDS:
            assert TraceEventRecord(kind=kind).kind == kind

    def test_json_round_trip(self):
        event = TraceEventRecord(
            kind="register-write", step=7, pid=2,
            payload={"obj": "r[0]", "value": 5},
        )
        assert event_from_json(event_to_json(event)) == event

    def test_to_json_omits_unset_fields(self):
        data = event_to_json(TraceEventRecord(kind="run-start"))
        assert data == {"v": TRACE_SCHEMA_VERSION, "kind": "run-start"}

    def test_from_json_rejects_foreign_version(self):
        data = event_to_json(TraceEventRecord(kind="crash", pid=1))
        data["v"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="unsupported trace"):
            event_from_json(data)

    def test_from_json_rejects_missing_version(self):
        with pytest.raises(ConfigurationError, match="unsupported trace"):
            event_from_json({"kind": "crash"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            event_from_json([1, 2, 3])

    def test_line_round_trip_is_canonical(self):
        event = TraceEventRecord(kind="finish", pid=0, payload={"output": 3})
        line = dumps_event(event)
        assert "\n" not in line
        assert loads_event(line) == event
        # Canonical: re-dumping the parsed event reproduces the line.
        assert dumps_event(loads_event(line)) == line

    def test_loads_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            loads_event("{nope")


class TestJsonlFiles:
    def test_write_read_round_trip(self, tmp_path):
        recorder = _run_traced()
        path = tmp_path / "trace.jsonl"
        written = write_trace_jsonl(recorder.events, path)
        assert written == len(recorder.events) > 0
        assert read_trace_jsonl(path) == recorder.events

    def test_recorder_to_jsonl(self, tmp_path):
        recorder = _run_traced()
        path = tmp_path / "trace.jsonl"
        assert recorder.to_jsonl(path) == len(recorder)
        assert read_trace_jsonl(path) == recorder.events

    def test_read_rejects_tampered_version(self, tmp_path):
        recorder = _run_traced()
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(path)
        tampered = path.read_text().replace('"v":1', '"v":99')
        path.write_text(tampered)
        with pytest.raises(ConfigurationError, match="unsupported trace"):
            read_trace_jsonl(path)

    def test_torn_final_line_warns_and_drops(self, tmp_path):
        # A crash mid-append leaves at most one unparseable final line;
        # the reader keeps the durable prefix and warns, matching the
        # checkpoint-journal contract.
        recorder = _run_traced()
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"regis')
        with pytest.warns(RuntimeWarning, match="torn"):
            events = read_trace_jsonl(path)
        assert events == recorder.events

    def test_torn_truncated_tail_of_last_event_warns(self, tmp_path):
        recorder = _run_traced()
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(path)
        # Truncate mid-way through the final line (no trailing newline).
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.warns(RuntimeWarning, match="torn"):
            events = read_trace_jsonl(path)
        assert events == recorder.events[:-1]

    def test_unreadable_line_with_later_lines_raises(self, tmp_path):
        # Corruption that is NOT a torn tail — durable lines follow — is
        # real damage and must fail loudly, never be skipped.
        recorder = _run_traced()
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(path)
        lines = path.read_text().splitlines()
        lines[1] = '{"nope'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="later lines exist"):
            read_trace_jsonl(path)

    def test_parseable_foreign_version_tail_still_raises(self, tmp_path):
        # The torn-tail tolerance covers only unparseable JSON; a line
        # that parses with a foreign schema version is rejected even at
        # the very end of the file.
        recorder = _run_traced()
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":99,"kind":"crash"}\n')
        with pytest.raises(ConfigurationError, match="unsupported trace"):
            read_trace_jsonl(path)


class TestTraceRecorder:
    def test_records_run_boundaries_and_operations(self):
        recorder = _run_traced(n=3, ops=4)
        kinds = [event.kind for event in recorder.events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-end"
        assert sorted(e.pid for e in recorder.events_of_kind("finish")) \
            == [0, 1, 2]
        # Every charged step is recorded, in step order.
        steps = [e.step for e in recorder.events
                 if e.kind in ("register-write", "register-read")]
        total = recorder.events_of_kind("run-end")[0].payload["total_steps"]
        assert steps == list(range(total)) and total == 3 * 4 * 2
        # The spin program writes and reads registers only.
        assert recorder.events_of_kind("register-write")
        assert recorder.events_of_kind("register-read")

    def test_step_events_carry_object_and_value(self):
        recorder = _run_traced(n=2, ops=2)
        write = recorder.events_of_kind("register-write")[0]
        assert write.pid is not None
        assert write.step is not None
        assert write.payload["obj"].startswith("spin[")
        assert write.payload["op"] == "write"
        assert write.payload["value"] == 0
        for event in recorder.events_of_kind("register-read"):
            assert "result" in event.payload
        for event in recorder.events_of_kind("finish"):
            assert event.payload["output"] == event.pid

    def test_unbounded_recorder_never_ring_drops(self):
        # Events are never evicted: the recorder holds one event per
        # charged step plus the run's lifecycle events.
        recorder = _run_traced(n=3, ops=6)
        total = recorder.events_of_kind("run-end")[0].payload["total_steps"]
        lifecycle = ("run-start", "finish", "run-end")
        assert len(recorder) == total + sum(
            len(recorder.events_of_kind(kind)) for kind in lifecycle
        )
        assert len(recorder) == 3 * 6 * 2 + 1 + 3 + 1

    def test_rejects_bad_configuration(self):
        # The recorder takes no options: every run is traced whole.
        for knob in ("capacity", "sample_every", "pid_sample_every",
                     "pid_reservoir", "include_values"):
            with pytest.raises(TypeError):
                TraceRecorder(**{knob: 1})

    def test_crash_fault_emits_crash_event(self):
        plan = FaultPlan(crashes=(CrashFault(pid=1, after_steps=2),))
        recorder = _run_traced(n=3, ops=4, hooks=[plan.injector()])
        crashes = recorder.events_of_kind("crash")
        assert len(crashes) == 1
        assert crashes[0].pid == 1
        assert crashes[0].payload["steps_taken"] == 2

    def test_stall_fault_emits_stall_events(self):
        # Withheld slots are not charged, so the event count depends on
        # how often the scheduler picks the stalled pid inside the window;
        # assert the semantics (pid, window) rather than a magic count.
        plan = FaultPlan(stalls=(StallFault(pid=0, start_step=1, duration=6),))
        recorder = _run_traced(n=3, ops=4, hooks=[plan.injector()])
        stalls = recorder.events_of_kind("stall")
        assert stalls
        assert all(event.pid == 0 for event in stalls)
        assert all(1 <= event.step < 7 for event in stalls)


class TestAnnotateConciliator:
    def test_derives_personae_and_round_transitions(self):
        n = 4
        conciliator = SnapshotConciliator(n)
        seeds = SeedTree(5)
        schedule = make_schedule("random", n, seeds.child("schedule"))
        recorder = TraceRecorder()
        run_conciliator(
            conciliator, list(range(n)), schedule, seeds, hooks=[recorder]
        )
        appended = recorder.annotate_conciliator(conciliator)
        adoptions = recorder.events_of_kind("persona-adoption")
        transitions = recorder.events_of_kind("round-transition")
        assert appended == len(adoptions) + len(transitions)
        # Every process adopts an initial persona at round 0.
        round0 = [e for e in adoptions if e.payload["round"] == 0]
        assert sorted(e.pid for e in round0) == list(range(n))
        # Transitions report survivor counts within [1, n].
        assert transitions
        for event in transitions:
            assert 1 <= event.payload["survivors"] <= n


class TestPidSampling:
    """Every pid's events are recorded: the recorder filters no pid."""

    def test_stride_of_one_drops_nothing(self):
        recorder = _run_traced(n=4, ops=2)
        assert len(recorder.events_of_kind("finish")) == 4
        step_kinds = ("register-write", "register-read")
        for pid in range(4):
            assert sum(1 for e in recorder.events
                       if e.kind in step_kinds and e.pid == pid) == 2 * 2
