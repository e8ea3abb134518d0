"""Million-process regime: memory-footprint regression + growth end-to-end.

The sparse/lazy state layer and the streaming samplers exist so that a
round at ``n = 10^6`` costs memory proportional to the *touched* cells
and scheduled slots, not to the namespace.  These tests pin that with
``tracemalloc``: a sparse sifting-style round over a million pids must
stay orders of magnitude below the dense extrapolation (a dense snapshot
component list alone is ~8 MB of pointers; one materialized permuted
pass is another ~40 MB of boxed ints — the sparse path measures in
kilobytes).

The growth experiment itself is gated end to end at a small ``max_n``:
two runs must render to the same bytes (the CI scale-smoke contract),
and every curve point must sit inside its
``theory.py`` envelope.
"""

import tracemalloc

import pytest

from repro.analysis.growth import sparse_round_probe

pytest.importorskip("numpy")


#: Generous ceilings, still ~1000x under the dense extrapolation.
_PROBE_PEAK_BYTES = 2 * 1024 * 1024
_SAMPLER_PEAK_BYTES = 256 * 1024


class TestMemoryFootprint:
    def test_million_process_sparse_round_stays_tiny(self):
        tracemalloc.start()
        try:
            probe = sparse_round_probe(10**6, seed=7, slots=50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < _PROBE_PEAK_BYTES, (
            f"sparse round peaked at {peak} bytes; the sparse/lazy state "
            "layer should keep a million-process round in the kilobytes"
        )
        # Memory followed the work, not the namespace: one round register,
        # a handful of touched snapshot components, n untouched.
        assert probe["n"] == 10**6
        assert probe["registers_allocated"] == 1
        assert probe["snapshot_sparse"] is True
        assert probe["snapshot_components_touched"] < 100

    def test_streaming_sampler_is_constant_memory(self):
        from repro.runtime.streaming import StreamingPermutedSchedule

        tracemalloc.start()
        try:
            schedule = StreamingPermutedSchedule(10**6, seed=3)
            checksum = 0
            for step in range(20_000):
                checksum += schedule.pid_at(step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 <= checksum
        assert peak < _SAMPLER_PEAK_BYTES, (
            f"streaming sampler peaked at {peak} bytes; pid_at must not "
            "materialize per-pass state"
        )

    def test_sparse_snapshot_scan_cost_follows_writers(self):
        # 10^6-component snapshot, 5 writers: the scan view iterates 5
        # entries, and building it allocates per-writer, not per-component.
        from repro.memory.snapshot import SnapshotObject
        from repro.runtime.operations import Scan, Update

        snapshot = SnapshotObject(10**6, sparse=True)
        for pid in (0, 10, 500_000, 999_998, 999_999):
            snapshot.apply(Update(snapshot, f"v{pid}"), pid)
        tracemalloc.start()
        try:
            view = snapshot.apply(Scan(snapshot), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert view.touched() == 5
        assert len(view) == 10**6
        assert peak < 64 * 1024


class TestGrowthEndToEnd:
    def test_report_is_byte_stable(self):
        from repro.analysis.growth import run_growth_experiment
        from repro.jsonio import dumps

        first = run_growth_experiment(max_n=100, label="same")
        second = run_growth_experiment(max_n=100, label="same")
        assert dumps(first) == dumps(second)

    def test_every_point_within_theory_envelope(self):
        from repro.analysis.growth import run_growth_experiment

        report = run_growth_experiment(max_n=1000, label="envelope")
        for name, points in report["curves"].items():
            for point in points:
                assert point["within_envelope"], (name, point)
                if point["relation"] == "exact":
                    assert (point["observed_max_steps"]
                            == point["predicted_steps"])
        for point in report["baseline_solo"]:
            assert point["observed_max_steps"] <= point["predicted_steps"]
        assert report["checks"]["within_envelope"]
        assert report["checks"]["monotone"]
        # Separation needs more decades than this smoke sweep has; the
        # committed GROWTH_baseline.json (max_n = 10^5) gates it in CI.

    def test_seed_changes_the_curves(self):
        from repro.analysis.growth import run_growth_experiment

        base = run_growth_experiment(max_n=100, label="a", seed=2012)
        other = run_growth_experiment(max_n=100, label="a", seed=2013)
        assert base["baseline_solo"] != other["baseline_solo"]
