"""Observability layer: structured tracing, metrics, and benchmarking.

The paper's claims are quantitative (Theorems 1-3 bound expected steps and
rounds), so per-run step/round/contention numbers are both an engineering
and a scientific deliverable.  This package provides the measurement
substrate the rest of the repository plugs into:

- :mod:`repro.obs.events` — a versioned, JSONL-serializable trace event
  schema covering steps, register reads/writes, snapshot scans, persona
  adoptions, round transitions, crashes, and stalls;
- :mod:`repro.obs.tracing` — :class:`TraceRecorder`, a
  :class:`~repro.runtime.hooks.StepHook` that records every structured
  event of a run, and is zero-cost when not attached (the simulator
  skips all hook machinery when it has no hooks);
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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.analyze": (
        "ANALYSIS_SCHEMA_VERSION", "AdoptionStep", "AttributionReport",
        "DisagreementReport", "PersonaLineage", "SurvivingLineage",
        "attribute_steps", "build_lineages", "explain_disagreement",
    ),
    "repro.obs.bench": (
        "BENCH_SCHEMA_VERSION", "BenchComparison", "CaseComparison",
        "SUITE_NAMES", "compare_bench", "load_bench_json", "run_bench_suite",
        "write_bench_json",
    ),
    "repro.obs.events": (
        "EVENT_KINDS", "TRACE_SCHEMA_VERSION", "TraceEventRecord",
        "event_from_json", "event_to_json", "read_trace_jsonl",
        "write_trace_jsonl",
    ),
    "repro.obs.metrics": (
        "Counter", "Histogram", "METRICS_SCHEMA_VERSION", "MetricsHook",
        "MetricsRegistry", "merge_snapshots",
    ),
    "repro.obs.timeline": (
        "render_timeline", "render_timeline_html", "render_waterfall",
        "render_waterfall_html",
    ),
    "repro.obs.tracing": ("TraceRecorder",),
    "repro.obs.trend": (
        "BENCH_LEDGER", "TREND_SCHEMA_VERSION", "Trend", "TrendLedger",
        "history_entry",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.obs.analyze import (
        ANALYSIS_SCHEMA_VERSION as ANALYSIS_SCHEMA_VERSION,
        AdoptionStep as AdoptionStep,
        AttributionReport as AttributionReport,
        DisagreementReport as DisagreementReport,
        PersonaLineage as PersonaLineage,
        SurvivingLineage as SurvivingLineage,
        attribute_steps as attribute_steps,
        build_lineages as build_lineages,
        explain_disagreement as explain_disagreement,
    )
    from repro.obs.bench import (
        BENCH_SCHEMA_VERSION as BENCH_SCHEMA_VERSION,
        SUITE_NAMES as SUITE_NAMES,
        BenchComparison as BenchComparison,
        CaseComparison as CaseComparison,
        compare_bench as compare_bench,
        load_bench_json as load_bench_json,
        run_bench_suite as run_bench_suite,
        write_bench_json as write_bench_json,
    )
    from repro.obs.events import (
        EVENT_KINDS as EVENT_KINDS,
        TRACE_SCHEMA_VERSION as TRACE_SCHEMA_VERSION,
        TraceEventRecord as TraceEventRecord,
        event_from_json as event_from_json,
        event_to_json as event_to_json,
        read_trace_jsonl as read_trace_jsonl,
        write_trace_jsonl as write_trace_jsonl,
    )
    from repro.obs.metrics import (
        METRICS_SCHEMA_VERSION as METRICS_SCHEMA_VERSION,
        Counter as Counter,
        Histogram as Histogram,
        MetricsHook as MetricsHook,
        MetricsRegistry as MetricsRegistry,
        merge_snapshots as merge_snapshots,
    )
    from repro.obs.timeline import (
        render_timeline as render_timeline,
        render_timeline_html as render_timeline_html,
        render_waterfall as render_waterfall,
        render_waterfall_html as render_waterfall_html,
    )
    from repro.obs.tracing import TraceRecorder as TraceRecorder
    from repro.obs.trend import (
        BENCH_LEDGER as BENCH_LEDGER,
        TREND_SCHEMA_VERSION as TREND_SCHEMA_VERSION,
        Trend as Trend,
        TrendLedger as TrendLedger,
        history_entry as history_entry,
    )
