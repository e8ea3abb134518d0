"""Unit tests for the metrics registry, merging, and runtime integration."""

import time

import pytest

from repro.analysis.experiments import run_conciliator_trials
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.errors import ConfigurationError
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Histogram,
    MetricsHook,
    MetricsRegistry,
    merge_snapshots,
)
from repro.runtime.faults import CrashFault, FaultPlan, StallFault
from repro.runtime.hooks import HOOK_STAGES, StepHook
from repro.runtime.monitors import WaitFreedomWatchdog
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


def _run(n=3, ops=4, metrics=None, hooks=(), allow_partial=False):
    seeds = SeedTree(23)
    schedule = make_schedule("random", n, seeds.child("schedule"))
    return run_programs(
        [_spin(ops)] * n, schedule, seeds,
        metrics=metrics, hooks=list(hooks), allow_partial=allow_partial,
    )


class TestCounterAndHistogram:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.counter_value("a") == 5
        assert registry.counter_value("never") == 0

    def test_labels_flatten_sorted(self):
        registry = MetricsRegistry()
        registry.counter("ops", op="read", obj="r").inc()
        assert registry.counter_keys() == ["ops{obj=r,op=read}"]

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ConfigurationError, match="already a counter"):
            registry.histogram("x")
        registry.histogram("y").observe(1)
        with pytest.raises(ConfigurationError, match="already a histogram"):
            registry.counter("y")

    def test_histogram_moments_exact(self):
        hist = Histogram()
        for value in (3, 1, 4, 1, 5):
            hist.observe(value)
        assert hist.count == 5
        assert hist.total == 14.0
        assert hist.min == 1.0
        assert hist.max == 5.0
        assert hist.mean == pytest.approx(2.8)
        assert hist.quantile(0.5) == 3.0

    def test_histogram_decimation_bounds_samples(self):
        hist = Histogram(max_samples=8)
        for value in range(100):
            hist.observe(value)
        assert hist.count == 100
        assert len(hist.samples) <= 8
        assert hist.stride > 1
        # Moments stay exact through decimation.
        assert hist.total == sum(range(100))

    def test_decimation_is_deterministic(self):
        first, second = Histogram(max_samples=8), Histogram(max_samples=8)
        for value in range(200):
            first.observe(value)
            second.observe(value)
        assert first.samples == second.samples
        assert first.stride == second.stride


class TestSnapshots:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        registry.counter("steps", pid=0).inc(17)
        for value in range(10):
            registry.histogram("latency").observe(value)
        return registry

    def test_round_trip_bit_identical(self):
        registry = self._populated()
        snapshot = registry.to_json()
        assert snapshot["v"] == METRICS_SCHEMA_VERSION
        restored = MetricsRegistry.from_json(snapshot)
        assert restored.to_json() == snapshot

    def test_foreign_version_rejected(self):
        snapshot = self._populated().to_json()
        snapshot["v"] = METRICS_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="unsupported metrics"):
            MetricsRegistry.from_json(snapshot)

    def test_merge_snapshots_order_sensitive_but_exact(self):
        parts = []
        for base in (0, 100):
            registry = MetricsRegistry()
            registry.counter("n").inc(base + 1)
            registry.histogram("h").observe(base)
            parts.append(registry.to_json())
        merged = merge_snapshots(parts)
        assert merged.counter_value("n") == 102
        hist = merged.histogram_for("h")
        assert hist.count == 2 and hist.total == 100.0

    def test_merge_into_existing(self):
        target = MetricsRegistry()
        target.counter("n").inc()
        merge_snapshots([self._populated().to_json()], into=target)
        assert target.counter_value("n") == 1
        assert target.counter_value("runs") == 3


class TestRuntimeIntegration:
    def test_run_populates_registry_and_result(self):
        registry = MetricsRegistry()
        result = _run(n=3, ops=4, metrics=registry)
        assert result.metrics is registry
        assert registry.counter_value("run.count") == 1
        assert registry.counter_value("sim.steps") == result.total_steps
        assert registry.counter_value("sim.ops", op="write") > 0
        hist = registry.histogram_for("sim.steps_to_finish")
        assert hist is not None and hist.count == 3

    def test_metrics_off_by_default(self):
        result = _run(n=3, ops=4)
        assert result.metrics is None

    def test_zero_step_run_gains_no_step_counters(self):
        registry = MetricsRegistry()
        result = _run(n=3, ops=0, metrics=registry)
        assert result.total_steps == 0
        assert registry.counter_value("run.count") == 1
        assert registry.counter_keys("sim.") == []

    def test_reused_hook_keeps_counting_into_its_registry(self):
        registry = MetricsRegistry()
        hook = MetricsHook(registry)
        first = _run(n=3, ops=4, hooks=[hook])
        second = _run(n=2, ops=3, hooks=[hook])
        assert registry.counter_value("run.count") == 2
        assert (registry.counter_value("sim.steps")
                == first.total_steps + second.total_steps)
        assert (registry.counter_value("sim.ops", op="read")
                + registry.counter_value("sim.ops", op="write")
                == first.total_steps + second.total_steps)

    def test_crash_and_stall_metrics(self):
        from repro.obs.tracing import TraceRecorder

        registry = MetricsRegistry()
        recorder = TraceRecorder()
        plan = FaultPlan(
            crashes=(CrashFault(pid=1, after_steps=2),),
            stalls=(StallFault(pid=0, start_step=1, duration=6),),
        )
        _run(n=3, ops=4, metrics=registry,
             hooks=[recorder, plan.injector()], allow_partial=True)
        assert registry.counter_value("sim.crashes") == 1
        # Cross-validate the counter against the trace: every withheld
        # slot must be counted exactly once.
        stalls = len(recorder.events_of_kind("stall"))
        assert stalls >= 1
        assert registry.counter_value("sim.stalled_slots") == stalls
        assert registry.histogram_for("sim.steps_at_crash").count == 1

    def test_watchdog_reports_through_registry(self):
        registry = MetricsRegistry()
        watchdog = WaitFreedomWatchdog(10_000, metrics=registry)
        _run(n=3, ops=4, hooks=[watchdog])
        assert registry.counter_value(
            "monitor.wait_freedom.step_budget"
        ) == 10_000
        hist = registry.histogram_for("monitor.wait_freedom.steps_to_decide")
        assert hist is not None and hist.count == 3

    def test_watchdog_violation_counts(self):
        registry = MetricsRegistry()
        watchdog = WaitFreedomWatchdog(2, strict=False, metrics=registry)
        _run(n=3, ops=4, hooks=[watchdog])
        assert not watchdog.ok
        assert registry.counter_value(
            "monitor.violations", monitor="wait-freedom"
        ) == len(watchdog.violations)


class TestSweepAggregation:
    def _sweep(self, **kwargs):
        registry = MetricsRegistry()
        run_conciliator_trials(
            lambda: SnapshotConciliator(4),
            [0, 1, 0, 1],
            trials=6,
            master_seed=13,
            metrics=registry,
            **kwargs,
        )
        return registry

    def test_parallel_merge_bit_identical_to_serial(self):
        serial = self._sweep(workers=1)
        parallel = self._sweep(workers=2, chunk_size=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.counter_value("run.count") == 6

    def test_no_collection_without_registry(self):
        stats = run_conciliator_trials(
            lambda: SiftingConciliator(4),
            [0, 1, 0, 1],
            trials=2,
            master_seed=13,
        )
        assert stats.trials == 2


class TestDisabledFastPath:
    def test_no_hook_machinery_consulted_without_hooks(self, monkeypatch):
        """Hook callbacks reach only the hooks that override them.

        Every callback of StepHook and MetricsHook is replaced by a counting
        wrapper that sets ``__wrapped__``, the way timing wrappers do, so an
        inherited no-op default stays recognisable as one.
        """
        calls = {stage: 0 for stage in HOOK_STAGES}

        def counting(stage, method):
            def wrapper(*args, **kwargs):
                calls[stage] += 1
                return method(*args, **kwargs)

            wrapper.__wrapped__ = method
            return wrapper

        for cls in (StepHook, MetricsHook):
            for stage in HOOK_STAGES:
                monkeypatch.setattr(cls, stage,
                                    counting(stage, getattr(cls, stage)))
        _run(n=3, ops=4)
        assert sum(calls.values()) == 0, (
            "a run with no hooks must call no hook method"
        )
        result = _run(n=3, ops=4, metrics=MetricsRegistry())
        assert calls["after_step"] == result.total_steps > 0
        assert calls["before_step"] == calls["intercept"] == 0
        assert calls["on_run_start"] == calls["on_run_end"] == 1

    def test_disabled_run_not_slower_than_instrumented(self):
        """The observability microbench assertion.

        A run with no hooks must not be slower than the same run with a
        metrics hook attached (generous 1.25x margin for scheduler noise
        on shared CI runners; the disabled path does strictly less work,
        so this only fails if the fast-path guard regresses).
        """
        ops = 300

        def best_of(k, metrics_factory):
            best = float("inf")
            for _ in range(k):
                metrics = metrics_factory()
                started = time.perf_counter()
                _run(n=4, ops=ops, metrics=metrics)
                best = min(best, time.perf_counter() - started)
            return best

        disabled = best_of(5, lambda: None)
        enabled = best_of(5, MetricsRegistry)
        assert disabled <= enabled * 1.25, (
            f"disabled-run best {disabled:.6f}s vs instrumented best "
            f"{enabled:.6f}s — the no-hook fast path appears to have "
            "regressed"
        )
