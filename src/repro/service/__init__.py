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

from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.loadgen import (
    PROFILES,
    ArrivalProfile,
    LoadtestResult,
    run_loadtest,
)
from repro.service.server import ServiceServer, serve
from repro.service.service import ConsensusService, ServiceConfig
from repro.service.session import (
    FAILURE_CODES,
    REJECTION_CODES,
    SESSION_STATUSES,
    SessionRequest,
    SessionResponse,
)
from repro.service.slo import (
    SLO_LEDGER,
    SLO_SCHEMA_VERSION,
    SLO_TREND_METRICS,
    build_report,
    deterministic_view,
    load_report,
    render_report,
    slo_history_entry,
    write_report,
)
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
from repro.service.vtime import VirtualTimeEventLoop, run_virtual
from repro.service.workers import ALGORITHMS, WorkOutcome, execute_session

__all__ = [
    "ALGORITHMS",
    "FAILURE_CODES",
    "PHASE_NAMES",
    "PROFILES",
    "REJECTION_CODES",
    "SESSION_STATUSES",
    "SLO_LEDGER",
    "SLO_SCHEMA_VERSION",
    "SLO_TREND_METRICS",
    "SPAN_NAMES",
    "SPAN_SCHEMA_VERSION",
    "ArrivalProfile",
    "BreakerConfig",
    "CircuitBreaker",
    "ConsensusService",
    "LoadtestResult",
    "ServiceConfig",
    "ServiceServer",
    "SessionRequest",
    "SessionResponse",
    "Span",
    "SpanRecorder",
    "VirtualTimeEventLoop",
    "WorkOutcome",
    "attribute_phases",
    "build_report",
    "deterministic_view",
    "execute_session",
    "load_report",
    "phase_sum",
    "read_spans_jsonl",
    "render_report",
    "run_loadtest",
    "run_virtual",
    "serve",
    "slo_history_entry",
    "span_digest",
    "tree_from_json",
    "tree_to_json",
    "write_spans_jsonl",
]
