"""Benchmark: observability overhead on a churning fleet.

Tracing is only usable if it is cheap enough to leave on: this
benchmark runs the same churn scenario twice — once with the default
:class:`~repro.obs.NullObserver` (every publication site reduced to one
attribute read and a falsy test) and once with a full
:class:`~repro.obs.Observer` (event tracing + histograms + periodic
sim-time snapshots) — and gates the traced run at <= 10% wall-clock
overhead.  Timing is paired (arms back-to-back, after an untimed
warm-up pair) so machine drift cancels within each ratio; the gate
takes the *minimum* paired ratio — on a noisy shared runner any single
iteration can be descheduled, but a *consistent* overhead above the
gate cannot produce even one favorable pair, so the minimum still
fails real regressions while shrugging off scheduler noise.  The
median ratio is reported alongside as the central estimate.

The NullObserver arm doubles as the no-obs baseline: it *is* the
default path every other benchmark (``BENCH_cycle.json``,
``BENCH_probegen.json``) runs on, so their
unchanged gates pin "NullObserver within noise of no observability"
continuously.  Both arms must produce a byte-identical alarm timeline
— observability must never perturb the simulation it observes.

Writes ``BENCH_obs.json`` and **fails** the CI gate when tracing costs
more than :data:`OVERHEAD_GATE`.
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_header, write_bench_artifact
from repro.fleet import RuleChurn, RuleDrop, ScenarioSpec, run_scenario

#: Traced wall-clock must stay within this factor of the null arm.
OVERHEAD_GATE = 1.10
REPEATS = 5


def _spec(observe: bool, scale: float, seed: int) -> ScenarioSpec:
    """A churn-heavy fleet scenario, identical across both arms."""
    return ScenarioSpec(
        topology="ring",
        size=6,
        duration=2.0,
        seed=seed,
        rules_per_switch=max(6, int(round(16 * min(scale, 1.0)))),
        probe_rate=300.0,
        dynamic=True,
        workloads=(RuleChurn(rate=25.0),),
        failures=(RuleDrop(at=0.7, node="sw0", rule_index=1),),
        observe=observe,
        obs_snapshot_interval=0.2 if observe else None,
    )


def _run(observe: bool, scale: float, seed: int):
    start = time.perf_counter()
    result = run_scenario(_spec(observe, scale, seed))
    elapsed = time.perf_counter() - start
    return elapsed, result


def test_observability_overhead(scale, seed):
    print_header(
        "Observability overhead: full tracing vs NullObserver "
        "(fleet churn scenario)"
    )

    _run(False, scale, seed)  # untimed warm-up pair
    _run(True, scale, seed)

    null_times: list[float] = []
    traced_times: list[float] = []
    ratios: list[float] = []
    null_result = traced_result = None
    # Paired back-to-back so machine drift cancels within each ratio.
    for _ in range(REPEATS):
        null_s, null_result = _run(False, scale, seed)
        traced_s, traced_result = _run(True, scale, seed)
        null_times.append(null_s)
        traced_times.append(traced_s)
        ratios.append(traced_s / null_s)
    assert null_result is not None and traced_result is not None

    # Tracing must observe, not perturb: identical simulation output.
    assert (
        traced_result.metrics.alarm_timeline
        == null_result.metrics.alarm_timeline
    ), "tracing changed the simulation's alarm timeline"
    assert (
        traced_result.metrics.probes_sent
        == null_result.metrics.probes_sent
    )

    null_s = min(null_times)
    traced_s = min(traced_times)
    overhead = min(ratios)
    overhead_median = sorted(ratios)[len(ratios) // 2]

    trace = traced_result.observer.trace
    registry = traced_result.observer.metrics
    row = {
        "switches": 6,
        "rules_per_switch": traced_result.spec.rules_per_switch,
        "sim_duration_s": traced_result.spec.duration,
        "probes_sent": traced_result.metrics.probes_sent,
        "trace_events": trace.emitted,
        "trace_dropped": trace.dropped,
        "metric_snapshots": len(registry.snapshots),
        "null_observer_s": round(null_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead": round(overhead, 4),
        "overhead_median": round(overhead_median, 4),
        "paired_ratios": [round(r, 4) for r in ratios],
    }
    print(
        f"null observer: {null_s * 1e3:8.1f} ms "
        f"(best of {REPEATS}; {row['probes_sent']} probes)"
    )
    print(
        f"traced:        {traced_s * 1e3:8.1f} ms "
        f"({row['trace_events']} events, "
        f"{row['metric_snapshots']} snapshots)"
    )
    print(
        f"overhead:      {overhead:8.3f}x best paired ratio "
        f"(median {overhead_median:.3f}x; gate: <= {OVERHEAD_GATE}x)"
    )

    path = write_bench_artifact(
        "obs",
        {
            "bench": "observability_overhead",
            "unit": "seconds_wall_per_run",
            "gate_overhead": OVERHEAD_GATE,
            "rows": [row],
        },
    )
    print(f"\nartifact: {path}")

    # Sanity: the traced arm really traced.
    assert trace.emitted > traced_result.metrics.probes_sent
    assert len(registry.snapshots) >= 5
    assert trace.dropped == 0

    # CI gate: tracing must be cheap enough to leave on.  A consistent
    # overhead above the gate cannot yield a single paired ratio below
    # it, so gating the minimum is noise-robust but still binding.
    assert overhead <= OVERHEAD_GATE, (
        f"full tracing costs >= {overhead:.3f}x the NullObserver "
        f"baseline in every paired run (gate: <= {OVERHEAD_GATE}x)"
    )
