"""Observability for the measurement pipeline (``repro.obs``).

Three instruments, one switchboard:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram registry with
  Prometheus-text and JSON exposition,
* :mod:`repro.obs.tracing` — nested spans over the monotonic clock
  with an in-memory collector and per-name aggregation,
* :mod:`repro.obs.progress` — callback-based rate/ETA reporting for
  long runs,
* :mod:`repro.obs.runtime` — the process-wide enable/disable switch
  (null implementations by default, so instrumentation is free when
  nobody is watching),
* :mod:`repro.obs.report` — timing and summary tables,
* :mod:`repro.obs.window` — sliding-window histograms/rates and the
  SLO tracker (live "last N seconds" views over a long-running
  service, deterministic under an injected clock),
* :mod:`repro.obs.http` — the stdlib telemetry daemon exposing
  ``/metrics``, ``/health``, ``/ready``, and ``/snapshot``; its two
  names load it on first use, so importing the package does not pull
  in ``http.server`` for a run that serves no telemetry.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    registry_from_snapshot,
    registry_from_wire,
    registry_to_wire,
)
from repro.obs.progress import (
    ProgressEvent,
    ProgressReporter,
    stderr_renderer,
)
from repro.obs.report import (
    cache_report,
    degradation_report,
    rov_report,
    rtrd_report,
    scheduler_report,
    serve_report,
    stage_timing_report,
    timing_table,
    world_report,
)
from repro.obs.runtime import (
    disable,
    enable,
    metrics,
    observability_enabled,
    scope,
    thread_scope,
    tracer,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanStats,
    TraceCollector,
)
from repro.obs.window import (
    EXPORTED_QUANTILES,
    RollingRate,
    SLOStatus,
    SLOTarget,
    SLOTracker,
    WindowedHistogram,
    estimate_quantiles,
    quantile_from_buckets,
)

_LAZY = ("HealthSource", "TelemetryServer")


def __getattr__(name):
    if name in _LAZY:
        from repro.obs import http

        return getattr(http, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EXPORTED_QUANTILES",
    "Gauge",
    "HealthSource",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "ProgressEvent",
    "ProgressReporter",
    "RollingRate",
    "SLOStatus",
    "SLOTarget",
    "SLOTracker",
    "Span",
    "SpanStats",
    "TelemetryServer",
    "TraceCollector",
    "WindowedHistogram",
    "cache_report",
    "degradation_report",
    "disable",
    "enable",
    "estimate_quantiles",
    "metrics",
    "observability_enabled",
    "quantile_from_buckets",
    "registry_from_snapshot",
    "registry_from_wire",
    "registry_to_wire",
    "rtrd_report",
    "scheduler_report",
    "scope",
    "serve_report",
    "stage_timing_report",
    "thread_scope",
    "stderr_renderer",
    "timing_table",
    "tracer",
    "rov_report",
    "world_report",
]
