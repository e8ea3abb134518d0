"""Unit tests for ASCII and HTML timeline rendering."""

import pytest

from repro.core.conciliator import run_conciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.errors import ConfigurationError
from repro.obs.events import TraceEventRecord
from repro.obs.timeline import (
    EVENT_MARKERS,
    render_timeline,
    render_timeline_html,
    render_waterfall,
    render_waterfall_html,
)
from repro.obs.tracing import TraceRecorder
from repro.runtime.rng import SeedTree
from repro.workloads.schedules import make_schedule


def _small_trace():
    return [
        TraceEventRecord(kind="run-start", payload={"n": 2, "step_limit": 10}),
        TraceEventRecord(kind="register-read", pid=0, step=0,
                         payload={"obj": "x.r[0]", "result": "<b>&v"}),
        TraceEventRecord(kind="register-write", pid=1, step=1,
                         payload={"obj": "x.r[0]", "value": 7}),
        TraceEventRecord(kind="round-transition",
                         payload={"round": 0, "survivors": 2,
                                  "protocol": "x"}),
        TraceEventRecord(kind="finish", pid=0, payload={"output": 7}),
        TraceEventRecord(kind="run-end",
                         payload={"completed": 2, "total_steps": 2,
                                  "crashed": 0}),
    ]


class TestAsciiTimeline:
    def test_rejects_trace_without_processes(self):
        events = [TraceEventRecord(kind="run-start", payload={"n": 0})]
        with pytest.raises(ConfigurationError, match="names no processes"):
            render_timeline(events)

    def test_rejects_narrow_width(self):
        with pytest.raises(ConfigurationError, match="width"):
            render_timeline(_small_trace(), width=39)

    def test_deterministic_and_newline_terminated(self):
        first = render_timeline(_small_trace())
        second = render_timeline(_small_trace())
        assert first == second
        assert first.endswith("\n")

    def test_rows_markers_and_round_separator(self):
        text = render_timeline(_small_trace())
        lines = text.splitlines()
        assert lines[0].split() == ["step", "p0", "p1", "event"]
        assert any("-- end of round 0 (2 persona(e) survive)" in line
                   for line in lines)
        assert any(" R " in line and "x.r[0]" in line for line in lines)
        assert any(" W " in line and ":= 7" in line for line in lines)
        assert "legend:" in lines[-1]

    def test_width_bounds_every_line(self):
        for line in render_timeline(_small_trace(), width=48).splitlines():
            assert len(line) <= 48

    def test_events_without_pid_get_dash_step(self):
        text = render_timeline(_small_trace())
        assert "run start: n=2 step_limit=10" in text
        assert "run end: completed=2" in text

    def test_every_marker_is_a_single_character(self):
        assert all(len(marker) == 1 for marker in EVENT_MARKERS.values())

    def test_real_trace_renders(self):
        n = 3
        conciliator = SiftingConciliator(n)
        seeds = SeedTree(9)
        schedule = make_schedule("random", n, seeds.child("schedule"))
        recorder = TraceRecorder()
        run_conciliator(
            conciliator, list(range(n)), schedule, seeds, hooks=[recorder]
        )
        recorder.annotate_conciliator(conciliator)
        text = render_timeline(recorder.events)
        assert "p0" in text and "p2" in text
        assert "-- end of round" in text
        # Deterministic: same events, same bytes.
        assert text == render_timeline(recorder.events)


class TestHtmlTimeline:
    def test_page_is_self_contained_table(self):
        page = render_timeline_html(_small_trace())
        assert page.startswith("<!DOCTYPE html>")
        assert "<table>" in page
        assert "<script" not in page
        assert "<th>p0</th><th>p1</th>" in page

    def test_escapes_payload_text(self):
        page = render_timeline_html(_small_trace())
        assert "&lt;b&gt;&amp;v" in page
        assert "<b>&v" not in page

    def test_round_transition_becomes_round_row(self):
        page = render_timeline_html(_small_trace())
        assert '<tr class="round">' in page
        assert "end of round 0" in page

    def test_title_is_escaped(self):
        page = render_timeline_html(_small_trace(), title="a<b>&c")
        assert "a&lt;b&gt;&amp;c" in page

    def test_deterministic(self):
        assert render_timeline_html(_small_trace()) \
            == render_timeline_html(_small_trace())


def _session_tree():
    """A tree-JSON document shaped like repro.service.spans tree_to_json,
    built as plain dicts — the renderers must not need Span objects."""
    return {
        "v": 1,
        "kind": "repro-session-spans",
        "session_id": 5,
        "root": {
            "name": "session", "start": 2.0, "end": 2.5,
            "status": "completed", "shard": 1,
            "attrs": {
                "session_id": 5, "attempts": 1,
                "phases": {"stall": 0.0, "queue-wait": 0.3,
                           "worker-call": 0.2, "backoff": 0.0,
                           "unattributed": 0.0},
            },
            "children": [
                {"name": "admission", "start": 2.0, "end": 2.0,
                 "status": "admitted"},
                {"name": "attempt", "start": 2.0, "end": 2.5,
                 "status": "completed", "attrs": {"attempt": 0},
                 "children": [
                     {"name": "queue-wait", "start": 2.0, "end": 2.3,
                      "status": "acquired"},
                     {"name": "worker-call", "start": 2.3, "end": 2.5,
                      "status": "completed"},
                 ]},
            ],
        },
    }


class TestAsciiWaterfall:
    def test_rows_follow_the_tree_depth_first(self):
        text = render_waterfall(_session_tree())
        lines = text.splitlines()
        assert "session 5: completed in 0.5000s" in lines[0]
        names = [line.split()[0] for line in lines[2:-1]]
        assert names == ["session", "admission", "attempt[0]",
                         "queue-wait", "worker-call"]

    def test_instant_spans_render_as_a_tick_not_a_bar(self):
        text = render_waterfall(_session_tree())
        admission = next(line for line in text.splitlines()
                         if "admission" in line)
        track = admission.split("|", 1)[1].rsplit("|", 1)[0]
        assert "#" not in track  # zero duration: tick only
        assert "|" in track
        assert "0.0000s admitted" in admission

    def test_phase_footer_reads_from_root_attrs(self):
        text = render_waterfall(_session_tree())
        assert text.splitlines()[-1].startswith("phases:")
        assert "queue-wait=0.3000s" in text

    def test_width_bounds_every_line(self):
        for line in render_waterfall(_session_tree(),
                                     width=60).splitlines():
            assert len(line) <= 60

    def test_rejects_narrow_width(self):
        with pytest.raises(ConfigurationError, match="width"):
            render_waterfall(_session_tree(), width=39)

    def test_accepts_a_bare_root_span_dict(self):
        assert "session 5" in render_waterfall(_session_tree()["root"])

    def test_rejects_non_tree_input(self):
        with pytest.raises(ConfigurationError, match="span tree"):
            render_waterfall({"not": "a tree"})
        with pytest.raises(ConfigurationError, match="span-tree"):
            render_waterfall("nope")

    def test_deterministic_and_newline_terminated(self):
        first = render_waterfall(_session_tree())
        assert first == render_waterfall(_session_tree())
        assert first.endswith("\n")

    def test_zero_duration_session_does_not_divide_by_zero(self):
        tree = {
            "v": 1, "kind": "repro-session-spans", "session_id": 0,
            "root": {"name": "session", "start": 1.0, "end": 1.0,
                     "status": "rejected",
                     "attrs": {"session_id": 0},
                     "children": [{"name": "admission", "start": 1.0,
                                   "end": 1.0, "status": "rejected"}]},
        }
        text = render_waterfall(tree)
        assert "rejected" in text


class TestHtmlWaterfall:
    def test_page_is_self_contained(self):
        page = render_waterfall_html(_session_tree())
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page
        assert "http" not in page  # no external assets

    def test_bars_are_percentage_positioned(self):
        page = render_waterfall_html(_session_tree())
        # queue-wait spans [2.0, 2.3] of [2.0, 2.5]: 0% left, 60% wide.
        assert "margin-left:0.00%;width:60.00%" in page
        # worker-call spans [2.3, 2.5]: 60% left, 40% wide.
        assert "margin-left:60.00%;width:40.00%" in page

    def test_title_and_status_are_escaped(self):
        page = render_waterfall_html(_session_tree(), title="a<b>&c")
        assert "a&lt;b&gt;&amp;c" in page

    def test_deterministic(self):
        assert render_waterfall_html(_session_tree()) \
            == render_waterfall_html(_session_tree())
