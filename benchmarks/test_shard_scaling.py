"""Benchmark: churn throughput scaling across shard workers.

The sharded runtime's reason to exist: a 64-switch fleet under rule
churn, run in-process (``workers=1``) and sharded across 2 and 4
worker processes.  The topology is eight 8-switch islands — a pure
partition for the shard planner (no link crosses the cut) — and every
arm must produce the *same* confirmed
operations and a byte-identical alarm timeline (there are no failures,
so the timelines are trivially empty — probes and confirmations are
the load).

Throughput = confirmed churn operations / wall-clock of the run phase
(:attr:`ScenarioResult.timings`; deployment build time is excluded on
every arm, so the comparison isolates the event loop).

Writes ``BENCH_shard.json``.  The gate is CPU-adaptive: on runners
with >= 4 usable cores (the CI machine), ``workers=4`` must clear
**2.5x** the in-process throughput; on smaller machines (e.g. a 1-core
dev container, where extra processes only time-slice) the gate only
asserts the sharded runtime is not pathologically slower than
in-process (>= 0.30x).

Topology size is pinned at 64 switches regardless of
``REPRO_BENCH_SCALE`` — the speedup shape is the reproduction target
and it depends on per-shard load balance; scale stretches the churn
rate and duration instead.
"""

from __future__ import annotations

import gc
import os
from dataclasses import replace

from benchmarks.conftest import print_header, write_bench_artifact
from repro.fleet.runner import ScenarioSpec, run_scenario
from repro.fleet.workloads import RuleChurn

SWITCHES = 64  # eight islands of eight — pinned, see module docstring
WORKER_ARMS = (1, 2, 4)
SPEEDUP_GATE = 2.5  # workers=4 vs workers=1, with >= 4 cores
OVERHEAD_FLOOR = 0.30  # workers=4 vs workers=1, starved of cores


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _spec(scale: float, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        topology="islands",
        size=SWITCHES,
        duration=max(1.0, 1.0 * scale),
        seed=seed,
        rules_per_switch=6,
        probe_rate=100.0,
        workloads=(RuleChurn(rate=200.0 * scale),),
    )


def test_shard_scaling(scale: float, seed: int) -> None:
    spec = _spec(scale, seed)
    arms: dict[int, dict] = {}
    baseline_timeline = None
    baseline_confirmed = None
    for workers in WORKER_ARMS:
        # Late in a long pytest session the heap left by earlier tests
        # is large and a full collection is due: forked workers each
        # pay it over the whole inherited heap, copy-on-write (an arm
        # then takes ~20 s instead of ~1 s).  Collect here so every
        # arm, and every worker it forks, starts with none pending.
        gc.collect()
        result = run_scenario(replace(spec, workers=workers))
        confirmed = result.metrics.updates_confirmed
        seconds = result.timings["run_seconds"]
        arms[workers] = {
            "confirmed_ops": confirmed,
            "run_seconds": seconds,
            "ops_per_second": confirmed / seconds if seconds else 0.0,
            "cut_links": result.metrics.cut_links,
        }
        if workers == 1:
            baseline_timeline = result.metrics.alarm_timeline
            baseline_confirmed = confirmed
        else:
            # Work equivalence: sharding changes who executes, never
            # what executes.
            assert result.metrics.alarm_timeline == baseline_timeline
            assert confirmed == baseline_confirmed
            assert result.metrics.cut_links == 0
        assert confirmed > 0

    cores = _usable_cores()
    speedup = {
        workers: (
            arms[workers]["ops_per_second"] / arms[1]["ops_per_second"]
        )
        for workers in WORKER_ARMS
    }

    print_header(
        f"Shard scaling: {SWITCHES}-switch fleet, "
        f"{spec.workloads[0].rate:.0f} churn ops/s, {cores} usable cores"
    )
    print(f"{'workers':>8} {'ops':>8} {'seconds':>9} "
          f"{'ops/s':>10} {'speedup':>8}")
    for workers in WORKER_ARMS:
        arm = arms[workers]
        print(
            f"{workers:>8} {arm['confirmed_ops']:>8} "
            f"{arm['run_seconds']:>9.3f} {arm['ops_per_second']:>10.0f} "
            f"{speedup[workers]:>8.2f}"
        )

    gated = cores >= max(WORKER_ARMS)
    write_bench_artifact(
        "shard",
        {
            "bench": "shard_scaling",
            "switches": SWITCHES,
            "usable_cores": cores,
            "arms": {str(w): arms[w] for w in WORKER_ARMS},
            "speedup_4x": speedup[4],
            "gate": SPEEDUP_GATE if gated else OVERHEAD_FLOOR,
            "gated_for_speedup": gated,
        },
    )

    if gated:
        assert speedup[4] >= SPEEDUP_GATE, (
            f"sharded runtime too slow: workers=4 at {speedup[4]:.2f}x "
            f"workers=1 (gate {SPEEDUP_GATE}x on {cores} cores)"
        )
    else:
        # Not enough cores for parallelism to show; only catch the
        # runtime being pathologically slower than in-process.
        assert speedup[4] >= OVERHEAD_FLOOR, (
            f"sharded runtime overhead too high: workers=4 at "
            f"{speedup[4]:.2f}x workers=1 on {cores} core(s)"
        )
