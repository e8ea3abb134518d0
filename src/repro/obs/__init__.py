"""Observability layer: structured tracing, metrics, and benchmarking.

The paper's claims are quantitative (Theorems 1-3 bound expected steps and
rounds), so per-run step/round/contention numbers are both an engineering
and a scientific deliverable.  This package provides the measurement
substrate the rest of the repository plugs into:

- :mod:`repro.obs.events` — a versioned, JSONL-serializable trace event
  schema covering steps, register reads/writes, snapshot scans, persona
  adoptions, round transitions, crashes, and stalls;
- :mod:`repro.obs.tracing` — :class:`TraceRecorder`, a
  :class:`~repro.runtime.faults.StepHook` that records structured events
  with ring-buffer and sampling modes, and is zero-cost when not attached
  (the simulator skips all hook machinery when it has no hooks);
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` counters/histograms
  whose snapshots merge deterministically across the parallel trial engine
  (bit-identical to a serial sweep, the same contract the PR 1 engine
  makes for results);
- :mod:`repro.obs.bench` — the ``repro bench`` harness: a curated suite
  (one case per algorithm family plus a raw simulator-step microbench)
  that writes canonical ``BENCH_<label>.json`` files and a ``compare``
  mode that gates CI on steps/sec regressions.

PR 5 adds the *analysis* half — turning recordings into explanations:

- :mod:`repro.obs.analyze` — persona-lineage reconstruction,
  :class:`DisagreementReport` (why a run diverged, and in which round),
  and :class:`AttributionReport` (observed per-round step counts graded
  against :mod:`repro.analysis.theory` predictions);
- :mod:`repro.obs.timeline` — deterministic ASCII and static-HTML
  per-process timeline rendering of a trace, plus per-session waterfall
  rendering of the service layer's span trees (``repro slo waterfall``);
- :mod:`repro.obs.trend` — the append-only ``BENCH_history.jsonl``
  bench ledger and its ``repro bench trend`` summary.
"""

from repro.obs.analyze import (
    ANALYSIS_SCHEMA_VERSION,
    AdoptionStep,
    AttributionReport,
    DisagreementReport,
    PersonaLineage,
    SurvivingLineage,
    attribute_steps,
    build_lineages,
    explain_disagreement,
)
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchComparison,
    CaseComparison,
    SUITE_NAMES,
    compare_bench,
    load_bench_json,
    run_bench_suite,
    write_bench_json,
)
from repro.obs.events import (
    EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    TraceEventRecord,
    event_from_json,
    event_to_json,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Histogram,
    MetricsHook,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.timeline import (
    render_timeline,
    render_timeline_html,
    render_waterfall,
    render_waterfall_html,
)
from repro.obs.tracing import TraceRecorder
from repro.obs.trend import (
    TREND_SCHEMA_VERSION,
    Trend,
    TrendLedger,
    append_history,
    history_entry,
    load_history,
    render_trend,
    summarize_trend,
)

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AdoptionStep",
    "AttributionReport",
    "BENCH_SCHEMA_VERSION",
    "BenchComparison",
    "CaseComparison",
    "Counter",
    "DisagreementReport",
    "EVENT_KINDS",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricsHook",
    "MetricsRegistry",
    "PersonaLineage",
    "SUITE_NAMES",
    "SurvivingLineage",
    "TRACE_SCHEMA_VERSION",
    "TREND_SCHEMA_VERSION",
    "TraceEventRecord",
    "TraceRecorder",
    "Trend",
    "TrendLedger",
    "append_history",
    "attribute_steps",
    "build_lineages",
    "compare_bench",
    "event_from_json",
    "event_to_json",
    "explain_disagreement",
    "history_entry",
    "load_bench_json",
    "load_history",
    "merge_snapshots",
    "read_trace_jsonl",
    "render_timeline",
    "render_timeline_html",
    "render_trend",
    "render_waterfall",
    "render_waterfall_html",
    "run_bench_suite",
    "summarize_trend",
    "write_trace_jsonl",
]
