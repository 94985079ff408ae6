#!/usr/bin/env python3
"""Sharded fleet runtime: the same scenario at workers=1 vs workers=4.

A 32-switch fleet (four 8-switch islands) under rule churn with two
injected failures, run twice:

* in-process — one sim kernel owns every switch (``workers=1``);
* sharded — four worker processes, each running its shard start to
  finish on its own kernel (``workers=4``; the planner keeps each
  island in one shard, so no link crosses the cut).

The two runs must agree *exactly* — same alarm timeline, same
detections, same confirmed-operation count — because sharding changes
who executes the events, never what executes.  The wall-clock ratio
depends on how many cores the machine actually has; on a single core
the sharded run only demonstrates (bounded) overhead.

Run:  python examples/sharded_fleet.py
"""

from dataclasses import replace

from repro.fleet import (
    RuleChurn,
    RuleDrop,
    ScenarioSpec,
    run_scenario,
)

SPEC = ScenarioSpec(
    topology="islands",
    size=32,  # four islands of 8 — partitions cleanly across 4 shards
    duration=1.5,
    seed=2015,
    rules_per_switch=6,
    probe_rate=150.0,
    workloads=(RuleChurn(rate=60.0),),
    failures=(
        RuleDrop(at=0.5, node="isl00_sw1", rule_index=2),
        RuleDrop(at=0.8, node="isl02_sw4", rule_index=1),
    ),
)


def run(workers: int):
    result = run_scenario(replace(SPEC, workers=workers))
    metrics = result.metrics
    label = f"workers={workers}"
    print(
        f"{label:>10}: {metrics.probes_sent} probes, "
        f"{metrics.updates_confirmed} churn ops confirmed, "
        f"{sum(1 for d in metrics.detections if d.detected)}/"
        f"{len(metrics.detections)} failures detected, "
        f"{len(metrics.false_alarms)} false alarms "
        f"({result.timings['run_seconds']:.2f}s wall clock)"
    )
    return result


def main():
    print(f"{SPEC.size}-switch fleet, {SPEC.workloads[0].rate:.0f} churn "
          f"ops/s, seed {SPEC.seed}\n")
    baseline = run(1)
    sharded = run(4)

    b, s = baseline.metrics, sharded.metrics
    assert s.alarm_timeline == b.alarm_timeline, "timelines diverged!"
    assert s.updates_confirmed == b.updates_confirmed
    assert [d.detected_at for d in s.detections] == [
        d.detected_at for d in b.detections
    ]
    print("\nalarm timelines are byte-identical across worker counts")
    print(
        f"sharded run: {s.workers} workers, {s.cut_links} cut links "
        "(every shard runs start to finish on its own clock)"
    )

    ratio = (
        baseline.timings["run_seconds"] / sharded.timings["run_seconds"]
    )
    print(f"wall-clock speedup: {ratio:.2f}x "
          "(hardware-dependent; `python3 -m bench` measures it as "
          "fleet.shard_speedup_x)")


if __name__ == "__main__":
    main()
