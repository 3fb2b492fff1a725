"""Observability subsystem: spans, metrics, structured logs, convergence events.

Production-scale numerical pipelines need the same visibility a serving
stack has: when a lock-range sweep is slow or an escalation ladder burns
its budget, the answer should come from a trace file, not a debugger.
This package provides the four pieces (DESIGN.md §9):

* :mod:`repro.obs.tracing` — hierarchical **spans** via :mod:`contextvars`
  (near-zero overhead disabled; JSON-lines trace files; the single timing
  primitive of the repo, with :class:`~repro.obs.tracing.Clock` as its
  stopwatch);
* :mod:`repro.obs.metrics` — the process-wide **metrics registry**
  (counters / gauges / histograms: cache hits, DF evaluations by method,
  HB Newton iterations, rung transitions, faults by kind) with one
  ``snapshot()`` → ``OBS_REPORT.json`` exporter;
* :mod:`repro.obs.convergence` — the per-iteration **event stream** the
  solvers narrate residuals and damping decisions into;
* :mod:`repro.obs.logs` — **structured logging** (event + fields; text or
  ``--log-json`` JSON-lines mode).

The package imports nothing from the rest of :mod:`repro`, so every layer
— :mod:`repro.perf` included — can depend on it without cycles.
"""

from repro.obs.convergence import convergence_event, events_active
from repro.obs.logs import (
    StructuredLogger,
    disable_json_logs,
    enable_json_logs,
    get_logger,
    json_logs_enabled,
)
from repro.obs.metrics import (
    MetricsRegistry,
    metrics,
    parse_prometheus,
    to_prometheus,
    validate_prometheus,
)
from repro.obs.report import (
    DEFAULT_OBS_REPORT_PATH,
    OBS_SCHEMA_VERSION,
    analyze_serve_trace,
    phase_totals,
    render_totals,
    render_trace,
    summarise_trace,
    validate_obs_report,
    validate_trace,
    write_obs_report,
)
from repro.obs.tracing import (
    ACCEPTED_TRACE_SCHEMAS,
    TRACE_SCHEMA_VERSION,
    Clock,
    Span,
    Tracer,
    current_span,
    current_trace_id,
    load_trace,
    new_trace_id,
    trace,
    tracer,
)

__all__ = [
    "Clock",
    "Span",
    "Tracer",
    "tracer",
    "trace",
    "current_span",
    "current_trace_id",
    "new_trace_id",
    "load_trace",
    "TRACE_SCHEMA_VERSION",
    "ACCEPTED_TRACE_SCHEMAS",
    "MetricsRegistry",
    "metrics",
    "to_prometheus",
    "parse_prometheus",
    "validate_prometheus",
    "convergence_event",
    "events_active",
    "StructuredLogger",
    "get_logger",
    "enable_json_logs",
    "disable_json_logs",
    "json_logs_enabled",
    "OBS_SCHEMA_VERSION",
    "DEFAULT_OBS_REPORT_PATH",
    "phase_totals",
    "render_trace",
    "render_totals",
    "summarise_trace",
    "analyze_serve_trace",
    "write_obs_report",
    "validate_trace",
    "validate_obs_report",
]
