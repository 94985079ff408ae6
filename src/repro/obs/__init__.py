"""Low-overhead observability: sim-time tracing + live metrics.

The paper's claims are all *latency* claims (probe cycle time, update
confirmation deadlines, detection latency under churn), so the repro
needs to see its own timing, not just post-mortem counters.  This
package is that substrate:

* :mod:`~repro.obs.trace` — :class:`TraceRecorder`, a bounded ring
  buffer of typed, sim-timestamped events with per-probe span ids;
  exports JSONL and Chrome ``trace_event`` files.
* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges and histograms with periodic sim-time snapshots (windowed
  time series) and Prometheus text exposition.
* :mod:`~repro.obs.observer` — the :class:`Observer` facade components
  publish through, and the default :class:`NullObserver`
  (:data:`NULL_OBSERVER`) whose disabled hot path is a no-op attribute
  read.
* :mod:`~repro.obs.analyze` — span reconstruction and trace-only
  detection-latency replay (cross-checked against the metrics layer).

Wiring: ``FleetDeployment(obs=Observer(...))`` threads the observer
through :class:`~repro.core.multiplexer.MonocleSystem` into every
Monitor, scheduler and probe-gen context;
``repro-fleet --trace-out/--metrics-out`` surfaces it on the CLI.
"""

from repro.obs.analyze import (
    ProbeSpan,
    TraceDetection,
    detection_latencies,
    format_span_table,
    probe_spans,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    window_rates,
)
from repro.obs.observer import NULL_OBSERVER, NullObserver, Observer
from repro.obs.trace import TraceEvent, TraceRecorder

__all__ = [
    "NULL_OBSERVER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullObserver",
    "Observer",
    "ProbeSpan",
    "TraceDetection",
    "TraceEvent",
    "TraceRecorder",
    "detection_latencies",
    "format_span_table",
    "probe_spans",
    "window_rates",
]
