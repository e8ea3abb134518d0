"""Every metric the benchmark prints, with its unit and better direction.

``BENCHMARK.json`` at the repository root lists the same names; the smoke
test checks the two agree.  Per-layer units name what a figure is per
(``ns/step``, ``us/trial``, ``ms/call``).
"""

from __future__ import annotations

from typing import List, Tuple

from tracer import MEMORY_KINDS
from workloads import FUZZ_STATUSES

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  The
# timing bounds are wide because the CPU speed of the shared machine this
# was tuned on shifts by 25-50% from one stretch of seconds to the next (see
# README.md).  completed_fraction is exact for a seed, but on service-burst
# it moves by ~5% from seed to seed with how many sessions the bursts shed.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_sec", "1/s", "higher", 0.25),
    ("ops_per_sec", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("completed_fraction", "fraction", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

LADDER_STAGES = ("schedule", "loop", "objects", "protocol", "metrics_hook",
                 "monitors_trace")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [
        ("schedules.build_us_per_trial", "us/trial", "lower"),
        ("schedules.ns_per_slot", "ns/slot", "lower"),
        ("schedules.slots", "count", "lower"),
        ("simulator.runs", "count", "higher"),
        ("simulator.steps", "count", "lower"),
        ("simulator.self_ns_per_step", "ns/step", "lower"),
        ("simulator.useful_slot_ratio", "ratio", "higher"),
        ("process.resume_ns_per_step", "ns/step", "lower"),
        ("process.start_us_per_trial", "us/trial", "lower"),
    ]
    for kind in MEMORY_KINDS:
        rows += [(f"memory.{kind}.ns_per_op", "ns/op", "lower"),
                 (f"memory.{kind}.ops", "count", "lower")]
    rows += [
        ("rng.derivations_per_trial", "1/trial", "lower"),
        ("rng.us_per_trial", "us/trial", "lower"),
        ("core.factory_us_per_trial", "us/trial", "lower"),
        ("monitors.ns_per_step", "ns/step", "lower"),
        ("faults.ns_per_step", "ns/step", "lower"),
        ("metrics_hook.ns_per_step", "ns/step", "lower"),
        ("hooks.calls_per_step", "1/step", "lower"),
        ("trace.events", "count", "lower"),
        ("trace.ns_per_event", "ns/event", "lower"),
        ("trace.check_us_per_trial", "us/trial", "lower"),
        ("adversary.picks", "count", "lower"),
        ("adversary.ns_per_pick", "ns/pick", "lower"),
        ("adversary.clamped", "count", "lower"),
        ("adversary.perturbed", "count", "lower"),
        ("semantics.weak_reads", "count", "lower"),
        ("semantics.ns_per_step", "ns/step", "lower"),
        ("fuzz.generate_us_per_trial", "us/trial", "lower"),
        ("fuzz.build_us_per_trial", "us/trial", "lower"),
        ("fuzz.run_self_us_per_trial", "us/trial", "lower"),
    ]
    rows += [(f"fuzz.status.{status}", "count",
              "higher" if status == "ok" else "lower")
             for status in FUZZ_STATUSES]
    rows += [
        ("vectorized.ns_per_step", "ns/step", "lower"),
        ("vectorized.blocks", "count", "lower"),
        ("vectorized.sweep_ms_per_block", "ms/block", "lower"),
        ("vectorized.stats_ms", "ms/call", "lower"),
    ]
    for backend in ("generator", "vectorized"):
        rows += [(f"workers.{backend}.ms_per_call", "ms/call", "lower"),
                 (f"workers.{backend}.calls", "count", "lower")]
    rows += [
        ("service.overhead_us_per_session", "us/session", "lower"),
        ("service.offered", "count", "higher"),
        ("service.completed", "count", "higher"),
        ("service.shed", "count", "lower"),
        ("service.failed", "count", "lower"),
        ("service.attempts_per_completed", "ratio", "lower"),
        ("service.degraded_attempts", "count", "lower"),
        ("service.breaker_opens", "count", "lower"),
        ("service.queue_wait_share", "ratio", "lower"),
        ("vtime.loop_iterations", "count", "lower"),
        ("vtime.self_us_per_session", "us/session", "lower"),
        ("slo.build_report_ms", "ms/call", "lower"),
    ]
    rows += [(f"ladder.{stage}_ns_per_step", "ns/step", "lower")
             for stage in LADDER_STAGES]
    rows += [
        ("ladder.steps", "count", "lower"),
        ("tracer.untraced_ops_per_sec", "1/s", "higher"),
        ("tracer.traced_ops_per_sec", "1/s", "higher"),
        ("tracer.overhead", "ratio", "lower"),
        ("tracer.unattributed_share", "ratio", "lower"),
    ]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
