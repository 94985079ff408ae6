#!/usr/bin/env python3
"""Observability: trace a fleet run, break every probe's latency down.

Runs a small churning ring with full observability on, then answers the
questions the trace exists for:

* per probe — where did its latency go?  ``solve`` (SAT time inside
  probe generation), ``wait`` (scheduler queueing from the churn/update
  signal to the injection slot), ``wire`` (injection to confirmation) —
  printed with :func:`repro.obs.format_span_table`;
* per failure — replay detection purely from the trace
  (:func:`repro.obs.detection_latencies`) and check it against the
  metrics layer's own :class:`~repro.fleet.metrics.DetectionRecord`;
* per window — sim-time probes/s from the periodic metric snapshots.

Every sim-time quantity (wait, wire, detections, windowed rates) is
deterministic under the fixed seed; the ``solve`` column is measured
wall-clock CPU time and varies run to run.

Run:  python examples/observability.py
"""

from repro.fleet import RuleChurn, RuleDrop, ScenarioSpec, run_scenario
from repro.obs import detection_latencies, format_span_table, probe_spans
from repro.obs.metrics import window_rates

SEED = 2015


def main():
    spec = ScenarioSpec(
        topology="ring",
        size=5,
        duration=2.0,
        seed=SEED,
        rules_per_switch=10,
        probe_rate=150.0,
        dynamic=True,
        workloads=(RuleChurn(rate=15.0),),
        failures=(RuleDrop(at=0.8, node="sw2", rule_index=3),),
        observe=True,
        obs_snapshot_interval=0.25,
    )
    result = run_scenario(spec)
    trace = result.observer.trace

    print("=== per-probe latency breakdown (solve / wait / wire) ===\n")
    spans = probe_spans(trace)
    print(format_span_table(spans.values(), limit=20))
    shown = min(20, len(spans))
    if shown < len(spans):
        print(f"... {len(spans) - shown} more spans not shown")

    print("\n=== where the time goes, fleet-wide ===\n")
    sources: dict[str, int] = {}
    for span in spans.values():
        if span.source:
            sources[span.source] = sources.get(span.source, 0) + 1
    print(
        "probe generation: "
        + ", ".join(
            f"{n} {src}"
            for src, n in sorted(sources.items(), key=lambda kv: -kv[1])
        )
    )
    for label, values in [
        ("solve", [s.solve_seconds for s in spans.values()]),
        ("wait", [s.wait_seconds for s in spans.values()]),
        ("wire", [s.wire_seconds for s in spans.values()]),
    ]:
        known = sorted(v for v in values if v is not None)
        if known:
            median = known[len(known) // 2]
            print(
                f"{label:>5}: median {median * 1000:7.3f} ms, "
                f"max {known[-1] * 1000:7.3f} ms  ({len(known)} probes)"
            )

    print("\n=== detection, replayed from the trace alone ===\n")
    for det in detection_latencies(trace):
        assert det.latency is not None, f"{det.kind} went undetected"
        print(
            f"{det.kind} on {det.detected_on}: injected t={det.injected_at}, "
            f"alarm t={det.detected_at} -> latency {det.latency * 1000:.1f} ms"
        )
    record_latencies = [d.latency for d in result.metrics.detections]
    trace_latencies = [d.latency for d in detection_latencies(trace)]
    assert trace_latencies == record_latencies, "trace diverged from metrics"
    print("(exactly equal to the metrics layer's DetectionRecords)")

    print("\n=== probes/s per sim-time window (metric snapshots) ===\n")
    snapshots = result.metrics.obs_snapshots
    for ts, rate in window_rates(snapshots, "monocle_probes_sent_total"):
        print(f"t={ts:4.2f}  {rate:7.1f} probes/s")


if __name__ == "__main__":
    main()
