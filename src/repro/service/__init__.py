"""Consensus as a service: the serving layer over the simulators.

The ROADMAP's framing is a production-scale system; this package is the
serving half of that story.  It exposes the paper's conciliator/consensus
rounds as short-lived client *sessions* behind a sharded, deadline-aware,
load-shedding service (:mod:`repro.service.service`), generates
deterministic open-loop traffic against it
(:mod:`repro.service.loadgen`), and reduces each run to a versioned SLO
report (:mod:`repro.service.slo`).  The loadtest runs on a virtual-time
event loop (:mod:`repro.service.vtime`), so a multi-minute traffic story
replays in milliseconds and byte-identically from its seed; ``repro
serve`` (:mod:`repro.service.server`) runs the identical service code on
a real loop and socket.

Every session also emits a *span tree* (:mod:`repro.service.spans`):
admission, queue waits, worker calls, and backoffs as nested intervals on
the virtual clock, with per-phase times that sum bit-for-bit to the
session's latency.  The SLO report folds the trees into its
``latency_attribution`` section, ``repro slo waterfall`` renders one
session's tree, and the server's ``{"cmd": "stats"}`` /
``{"cmd": "health"}`` control verbs expose the live
:meth:`ConsensusService.snapshot` over the same TCP stream.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.service.breaker": ("BreakerConfig", "CircuitBreaker"),
    "repro.service.loadgen": (
        "PROFILES", "ArrivalProfile", "LoadtestResult", "run_loadtest",
    ),
    "repro.service.server": ("ServiceServer", "serve"),
    "repro.service.service": ("ConsensusService", "ServiceConfig"),
    "repro.service.session": (
        "FAILURE_CODES", "REJECTION_CODES", "SESSION_STATUSES",
        "SessionRequest", "SessionResponse",
    ),
    "repro.service.slo": (
        "SLO_LEDGER", "SLO_SCHEMA_VERSION", "SLO_TREND_METRICS",
        "build_report", "deterministic_view", "load_report", "render_report",
        "slo_history_entry", "write_report",
    ),
    "repro.service.spans": (
        "PHASE_NAMES", "SPAN_NAMES", "SPAN_SCHEMA_VERSION", "Span",
        "SpanRecorder", "attribute_phases", "phase_sum", "read_spans_jsonl",
        "span_digest", "tree_from_json", "tree_to_json", "write_spans_jsonl",
    ),
    "repro.service.vtime": ("VirtualTimeEventLoop", "run_virtual"),
    "repro.service.workers": ("ALGORITHMS", "WorkOutcome", "execute_session"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.service.breaker import (
        BreakerConfig as BreakerConfig,
        CircuitBreaker as CircuitBreaker,
    )
    from repro.service.loadgen import (
        PROFILES as PROFILES,
        ArrivalProfile as ArrivalProfile,
        LoadtestResult as LoadtestResult,
        run_loadtest as run_loadtest,
    )
    from repro.service.server import (
        ServiceServer as ServiceServer,
        serve as serve,
    )
    from repro.service.service import (
        ConsensusService as ConsensusService,
        ServiceConfig as ServiceConfig,
    )
    from repro.service.session import (
        FAILURE_CODES as FAILURE_CODES,
        REJECTION_CODES as REJECTION_CODES,
        SESSION_STATUSES as SESSION_STATUSES,
        SessionRequest as SessionRequest,
        SessionResponse as SessionResponse,
    )
    from repro.service.slo import (
        SLO_LEDGER as SLO_LEDGER,
        SLO_SCHEMA_VERSION as SLO_SCHEMA_VERSION,
        SLO_TREND_METRICS as SLO_TREND_METRICS,
        build_report as build_report,
        deterministic_view as deterministic_view,
        load_report as load_report,
        render_report as render_report,
        slo_history_entry as slo_history_entry,
        write_report as write_report,
    )
    from repro.service.spans import (
        PHASE_NAMES as PHASE_NAMES,
        SPAN_NAMES as SPAN_NAMES,
        SPAN_SCHEMA_VERSION as SPAN_SCHEMA_VERSION,
        Span as Span,
        SpanRecorder as SpanRecorder,
        attribute_phases as attribute_phases,
        phase_sum as phase_sum,
        read_spans_jsonl as read_spans_jsonl,
        span_digest as span_digest,
        tree_from_json as tree_from_json,
        tree_to_json as tree_to_json,
        write_spans_jsonl as write_spans_jsonl,
    )
    from repro.service.vtime import (
        VirtualTimeEventLoop as VirtualTimeEventLoop,
        run_virtual as run_virtual,
    )
    from repro.service.workers import (
        ALGORITHMS as ALGORITHMS,
        WorkOutcome as WorkOutcome,
        execute_session as execute_session,
    )
