"""Observability for the mining stack: metrics, spans, logs, manifests.

One import point for the four instruments this package provides:

* :mod:`repro.obs.metrics` -- process-wide counters/gauges/histograms with
  a disabled no-op fast path (hot loops pay one attribute check when off);
* :mod:`repro.obs.tracing` -- context-manager spans emitting a JSONL event
  log, propagated across :class:`~repro.core.parallel.ParallelNMEngine`
  workers so shard spans appear in the parent trace;
* :mod:`repro.obs.logs` -- stdlib ``logging`` under the ``repro.*``
  hierarchy with a JSON formatter;
* :mod:`repro.obs.manifest` / :mod:`repro.obs.report` -- run manifests and
  the ``trajpattern report`` renderer;
* :mod:`repro.obs.export` / :mod:`repro.obs.slo` -- periodic telemetry
  export (JSONL series + Prometheus text) and SLO burn-rate evaluation
  over the exported series.

Everything is off by default: no handlers installed, metrics registry
disabled, no tracer.  :func:`configure` switches the pieces on; the CLI
drives it from ``--log-level`` / ``--trace-out`` / ``--metrics-out``.
This package deliberately imports nothing from :mod:`repro.core`, so any
layer of the stack can instrument itself without import cycles.
"""

from __future__ import annotations

from repro.obs import logs, metrics, tracing
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import (
    BufferSink,
    SpanContext,
    begin,
    configure_tracing,
    current_context,
    disable_tracing,
    record_span,
    span,
    span_at,
)

__all__ = [
    "BufferSink",
    "MetricsRegistry",
    "SpanContext",
    "begin",
    "configure",
    "configure_logging",
    "configure_tracing",
    "current_context",
    "disable_tracing",
    "get_logger",
    "get_registry",
    "logs",
    "metrics",
    "record_span",
    "shutdown",
    "span",
    "span_at",
    "tracing",
]


def configure(
    log_level: str | None = None,
    trace_out=None,
    enable_metrics: bool = False,
) -> None:
    """Switch on the requested observability pieces (idempotent).

    ``enable_metrics`` resets the global registry before enabling it, so
    consecutive runs in one process report clean numbers.
    """
    if log_level:
        configure_logging(log_level)
    if trace_out:
        configure_tracing(path=trace_out)
    if enable_metrics:
        registry = get_registry()
        registry.reset()
        registry.enable()


def shutdown() -> None:
    """Close the tracer and disable metrics (end-of-command hygiene).

    Log handlers stay installed -- they are harmless and replaceable --
    but the trace file is flushed/closed and the registry disabled so a
    following run (or test) starts from the default-off state.
    """
    disable_tracing()
    registry = get_registry()
    registry.disable()
    registry.reset()
