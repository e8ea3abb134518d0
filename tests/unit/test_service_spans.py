"""Unit tests for the session span-tree schema and recorder.

The exactness contract (``phase_sum(attribute_phases(root, latency)) ==
latency`` bit-for-bit) is the foundation the SLO ``latency_attribution``
section and its CI byte-diff stand on, so it gets adversarial float
inputs here; the integration suite re-checks it over full loadtests.
"""

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.service.spans import (
    PHASE_NAMES,
    SPAN_NAMES,
    SPAN_SCHEMA_VERSION,
    Span,
    SpanRecorder,
    attribute_phases,
    phase_sum,
    read_spans_jsonl,
    span_digest,
    tree_from_json,
    tree_to_json,
    write_spans_jsonl,
)


def sample_tree(session_id=7, shard=1):
    """A hand-built session tree with one retried attempt."""
    root = Span(name="session", start=10.0, end=10.5, status="completed",
                shard=shard, attrs={"session_id": session_id})
    root.child("breaker", 10.0, status="closed", shard=shard, probe=False)
    root.child("admission", 10.0, status="admitted")
    first = root.child("attempt", 10.0, 10.2, status="timeout", shard=shard,
                       attempt=0)
    first.child("queue-wait", 10.0, 10.05, status="acquired", shard=shard)
    first.child("worker-call", 10.05, 10.15, status="timeout", shard=shard,
                timeout=0.1, remaining=0.5)
    first.child("backoff", 10.15, 10.2, status="waited", shard=shard,
                delay=0.05)
    second = root.child("attempt", 10.2, 10.5, status="completed",
                        shard=shard, attempt=1)
    second.child("queue-wait", 10.2, 10.3, status="acquired", shard=shard)
    second.child("worker-call", 10.3, 10.5, status="completed", shard=shard,
                 timeout=0.1, remaining=0.3)
    root.attrs["phases"] = attribute_phases(root, root.duration)
    return root


class TestSchema:
    def test_roundtrip_is_lossless(self):
        root = sample_tree()
        back = tree_from_json(tree_to_json(root))
        assert tree_to_json(back) == tree_to_json(root)

    def test_envelope_carries_version_kind_and_session_id(self):
        data = tree_to_json(sample_tree(session_id=42))
        assert data["v"] == SPAN_SCHEMA_VERSION
        assert data["kind"] == "repro-session-spans"
        assert data["session_id"] == 42

    def test_foreign_version_is_rejected(self):
        data = tree_to_json(sample_tree())
        data["v"] = 99
        with pytest.raises(ConfigurationError, match="version 99"):
            tree_from_json(data)

    def test_foreign_kind_is_rejected(self):
        data = tree_to_json(sample_tree())
        data["kind"] = "something-else"
        with pytest.raises(ConfigurationError, match="kind"):
            tree_from_json(data)

    def test_unknown_span_name_is_rejected(self):
        data = tree_to_json(sample_tree())
        data["root"]["children"][0]["name"] = "mystery"
        with pytest.raises(ConfigurationError, match="mystery"):
            tree_from_json(data)

    def test_tree_must_be_rooted_at_a_session_span(self):
        orphan = Span(name="attempt", start=0.0, end=1.0)
        with pytest.raises(ConfigurationError, match="session"):
            tree_to_json(orphan)

    def test_find_returns_descendants_in_tree_order(self):
        root = sample_tree()
        attempts = root.find("attempt")
        assert [span.attrs["attempt"] for span in attempts] == [0, 1]
        assert len(root.find("worker-call")) == 2
        assert root.find("session") == [root]

    def test_span_names_are_a_closed_vocabulary(self):
        root = sample_tree()
        seen = {span.name for name in SPAN_NAMES for span in root.find(name)}
        assert seen <= set(SPAN_NAMES)


class TestExactAttribution:
    def test_phases_sum_exactly_to_latency(self):
        root = sample_tree()
        phases = attribute_phases(root, root.duration)
        assert phase_sum(phases) == root.duration

    def test_exactness_survives_adversarial_float_boundaries(self):
        # Timestamps chosen so the interval differences do NOT telescope
        # exactly under naive summation: the remainder must absorb it.
        root = Span(name="session", start=0.1, end=0.1 + 0.7,
                    status="completed", attrs={"session_id": 0})
        attempt = root.child("attempt", 0.1, 0.1 + 0.7, attempt=0)
        attempt.child("queue-wait", 0.1, 0.30000000000000004)
        attempt.child("worker-call", 0.30000000000000004, 0.1 + 0.7)
        latency = (0.1 + 0.7) - 0.1
        phases = attribute_phases(root, latency)
        assert phase_sum(phases) == latency

    def test_unattributed_names_the_uncovered_gap(self):
        root = Span(name="session", start=0.0, end=1.0, status="completed",
                    attrs={"session_id": 0})
        attempt = root.child("attempt", 0.0, 0.25, attempt=0)
        attempt.child("worker-call", 0.0, 0.25)
        phases = attribute_phases(root, 1.0)
        assert phases["worker-call"] == 0.25
        assert phases["unattributed"] == 0.75

    def test_each_phase_is_summed_in_tree_order(self):
        # Float addition is not associative: 1.0 followed by five 1e-16
        # sums to 1.0, the reverse order to 1.0000000000000004.  Each
        # phase must add its spans in ``root.find`` (pre-)order.
        root = Span(name="session", start=0.0, end=2.0, status="failed",
                    attrs={"session_id": 0})
        durations = [1.0] + [1e-16] * 5
        for index, duration in enumerate(durations):
            attempt = root.child("attempt", 0.0, 2.0, attempt=index)
            attempt.child("queue-wait", 0.0, duration)
            attempt.child("backoff", 0.0, durations[-1 - index])
        phases = attribute_phases(root, 2.0)
        assert phases["queue-wait"] == 1.0
        assert phases["backoff"] == 1.0000000000000004
        for name in PHASE_NAMES[:-1]:
            expected = 0.0
            for span in root.find(name):
                expected += span.duration
            assert phases[name] == expected, name
        assert phase_sum(phases) == 2.0

    def test_phase_names_order_is_the_fold_order(self):
        assert PHASE_NAMES == ("stall", "queue-wait", "worker-call",
                               "backoff", "unattributed")


class TestDigestAndPersistence:
    def test_digest_matches_sha256_of_the_written_file(self, tmp_path):
        roots = [sample_tree(session_id=i) for i in range(3)]
        path = write_spans_jsonl(roots, tmp_path / "spans.jsonl")
        on_disk = hashlib.sha256(path.read_bytes()).hexdigest()
        assert span_digest(roots) == f"sha256:{on_disk}"

    def test_roundtrip_through_jsonl(self, tmp_path):
        roots = [sample_tree(session_id=i) for i in range(3)]
        path = write_spans_jsonl(roots, tmp_path / "spans.jsonl")
        back = read_spans_jsonl(path)
        assert span_digest(back) == span_digest(roots)

    def test_digest_is_order_sensitive(self):
        a, b = sample_tree(session_id=0), sample_tree(session_id=1)
        assert span_digest([a, b]) != span_digest([b, a])

    def test_read_rejects_foreign_version_with_line_number(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        lines = [json.dumps(tree_to_json(sample_tree()))]
        bad = tree_to_json(sample_tree())
        bad["v"] = 2
        lines.append(json.dumps(bad))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            read_spans_jsonl(path)

    def test_read_rejects_non_json_with_line_number(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ConfigurationError, match="line 1"):
            read_spans_jsonl(path)


class TestSpanRecorder:
    def test_unbounded_recorder_keeps_everything(self):
        recorder = SpanRecorder()
        for i in range(5):
            recorder.record(sample_tree(session_id=i))
        assert len(recorder) == 5
        assert recorder.dropped == 0
        assert recorder.recorded_total == 5

    def test_bounded_recorder_evicts_oldest_and_counts_drops(self):
        recorder = SpanRecorder(capacity=2)
        for i in range(5):
            recorder.record(sample_tree(session_id=i))
        assert [t.attrs["session_id"] for t in recorder.trees] == [3, 4]
        assert recorder.dropped == 3
        assert recorder.recorded_total == 5
        assert recorder.to_json() == {
            "retained": 2, "recorded_total": 5, "dropped": 3,
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            SpanRecorder(capacity=0)

    def test_tree_for_returns_the_newest_match(self):
        recorder = SpanRecorder()
        old = sample_tree(session_id=9)
        new = sample_tree(session_id=9)
        recorder.record(old)
        recorder.record(new)
        assert recorder.tree_for(9) is new
        assert recorder.tree_for(404) is None

    def test_calls_view_flattens_worker_calls_per_attempt(self):
        recorder = SpanRecorder()
        recorder.record(sample_tree(session_id=3, shard=1))
        calls = recorder.calls_view()
        assert len(calls) == 2
        assert calls[0] == {
            "session_id": 3, "shard": 1, "attempt": 0,
            "timeout": 0.1, "remaining": 0.5,
        }
        assert calls[1]["attempt"] == 1
        assert all(c["timeout"] <= c["remaining"] for c in calls)
