"""Low-overhead observability: sim-time tracing + metric snapshots.

The paper's claims are all *latency* claims (probe cycle time, update
confirmation deadlines, detection latency under churn), so the repro
needs to see its own timing, not just post-mortem counters.  This
package is that substrate:

* :mod:`~repro.obs.trace` — :class:`TraceRecorder`, a bounded ring
  buffer of typed, sim-timestamped events with per-probe span ids;
  exports JSONL and Chrome ``trace_event`` files.
* :mod:`~repro.obs.metrics` — the :class:`Histogram` layers observe
  latencies into, and the two renderings of a metric series list:
  sim-time snapshots (windowed time series) and Prometheus text
  exposition.  The series come from the fleet's per-switch metrics
  rows (:func:`~repro.fleet.metrics.metric_series`), so a sharded run
  merges them like any other row.
* :mod:`~repro.obs.observer` — the :class:`Observer` facade components
  publish through (trace, span ids, clock, snapshot pacing), and the
  default :class:`NullObserver` (:data:`NULL_OBSERVER`) whose disabled
  hot path is a no-op attribute read.
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
from repro.obs.metrics import Histogram, window_rates
from repro.obs.observer import NULL_OBSERVER, NullObserver, Observer
from repro.obs.trace import TraceEvent, TraceRecorder

__all__ = [
    "NULL_OBSERVER",
    "Histogram",
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
