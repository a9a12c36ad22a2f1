"""Unified observability: metrics, tracing spans, and profiling hooks.

Three cooperating pieces, threaded through train → publish → serve:

* :mod:`repro.telemetry.registry` — :class:`MetricsRegistry` with
  lock-consistent counters/gauges/log-scale histograms and sum-merge
  snapshot semantics (per-worker registries merge like sketch tables);
* :mod:`repro.telemetry.tracer` — the module-level :data:`trace`
  singleton recording parent/child wall-clock span trees, free when
  disabled;
* :mod:`repro.telemetry.hooks` — the module-level :data:`hooks`
  profiling callbacks (``on_batch_end`` / ``on_publish`` /
  ``on_flush``) the benchmarks build timing breakdowns from.

Exporters (:mod:`repro.telemetry.exporters`) render any snapshot as
Prometheus text, a JSON dump, or the ``repro telemetry`` terminal view.

Overhead contract: metric updates are per-batch (never per example)
and tracing costs nothing measurable while disabled —
``BENCH_telemetry.json`` demonstrates tracing-enabled Fig. 7 training
within 3% of disabled, and CI gates it (``benchmarks/gate.py
telemetry``).
"""

from repro.telemetry.exporters import render_terminal, to_json, to_prometheus
from repro.telemetry.hooks import ProfilingHooks, hooks
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.telemetry.tracer import (
    Span,
    TraceError,
    Tracer,
    trace,
    validate_span_tree,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfilingHooks",
    "Span",
    "TraceError",
    "Tracer",
    "hooks",
    "merge_snapshots",
    "render_terminal",
    "to_json",
    "to_prometheus",
    "trace",
    "validate_span_tree",
]
