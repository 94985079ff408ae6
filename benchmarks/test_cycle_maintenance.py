"""Benchmark: incremental probe-cycle maintenance vs rebuild-per-FlowMod.

PR 4 made every overlap/lookup path sublinear; the last O(N)-per-FlowMod
cost in the monitoring pipeline was the probe cycle itself —
``Monitor._rebuild_cycle`` re-walked the whole expected table on every
churn operation.  PR 5 extracted the cycle into
:class:`~repro.core.schedule.ProbeScheduler`, which pays one full build
at construction and O(delta) bisect maintenance per churned rule after
that.

This benchmark measures the per-FlowMod cycle-maintenance cost both
ways on ClassBench-style ACL tables (remove + re-add churn, the same
workload the overlap bench uses):

* **rebuild** — the historical behaviour: apply the table delta, then
  rebuild the key list from a full expected-table iteration;
* **incremental** — apply the same table delta, then feed the scheduler
  the O(delta) add/discard.

Scale: sizes are ``(16384, 65536) * REPRO_BENCH_SCALE`` (0.25 in CI
exercises 4k/16k; the default 1.0 runs the full sweep).

Writes ``BENCH_cycle.json`` and **fails** unless incremental
maintenance is >= 5x faster than rebuild-per-FlowMod on every measured
size — and unless the scheduler's ``cycle_rebuilds`` counter stayed at
1 through the whole churn run (the no-full-iteration invariant).
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_header, write_bench_artifact
from repro.core.catching import CATCH_PRIORITY, FILTER_PRIORITY
from repro.core.schedule import ProbeScheduler
from repro.datasets import sized_acl_table
from repro.sim.random import DeterministicRandom

SIZES = (16384, 65536)
CHURN_STEPS = 200
GATE_SPEEDUP = 5.0


def _is_infrastructure(rule) -> bool:
    return rule.priority in (CATCH_PRIORITY, FILTER_PRIORITY)


def _rebuild_arm(table, victims) -> float:
    """Per-op µs of the historical apply + full-rebuild loop."""
    start = time.perf_counter()
    for victim in victims:
        table.remove(victim)
        _keys = [
            rule.key() for rule in table if not _is_infrastructure(rule)
        ]
        table.install(victim)
        _keys = [
            rule.key() for rule in table if not _is_infrastructure(rule)
        ]
    return 1e6 * (time.perf_counter() - start) / (2 * len(victims))


def _incremental_arm(table, scheduler, victims) -> float:
    """Per-op µs of the same churn through the delta-maintained cycle."""
    start = time.perf_counter()
    for victim in victims:
        table.remove(victim)
        scheduler.discard(victim.key())
        table.install(victim)
        scheduler.add(victim)
    return 1e6 * (time.perf_counter() - start) / (2 * len(victims))


def test_cycle_maintenance_incremental_vs_rebuild(scale, seed):
    sizes = [max(2048, int(n * scale)) for n in SIZES]
    rng = DeterministicRandom(seed).fork(0xC1C1E)

    print_header(
        "Incremental cycle maintenance vs rebuild-per-FlowMod "
        "(per churn op, µs)"
    )
    print(
        f"{'rules':>7} {'rebuild us':>11} {'incremental us':>15} "
        f"{'speedup':>8}"
    )

    rows = []
    for num_rules in sizes:
        table = sized_acl_table(num_rules, seed=seed)
        rules = table.rules()
        victims = [
            rules[i]
            for i in rng.sample(
                range(len(rules)), min(CHURN_STEPS, len(rules) // 2)
            )
        ]

        scheduler = ProbeScheduler(
            policy="round_robin",
            is_infrastructure=_is_infrastructure,
        )
        scheduler.rebuild(table)
        assert scheduler.stats.cycle_rebuilds == 1

        rebuild_us = _rebuild_arm(table, victims)
        incremental_us = _incremental_arm(table, scheduler, victims)

        # The no-full-iteration invariant: all that churn cost zero
        # additional cycle rebuilds, and the delta-maintained key set
        # is exactly what a from-scratch rebuild would produce.
        assert scheduler.stats.cycle_rebuilds == 1
        assert scheduler.keys() == [
            rule.key() for rule in table if not _is_infrastructure(rule)
        ]
        # The cycle still serves probes after the churn.
        assert scheduler.next_rule(table) is not None

        row = {
            "rules": num_rules,
            "churn_ops": 2 * len(victims),
            "rebuild_us_per_op": round(rebuild_us, 2),
            "incremental_us_per_op": round(incremental_us, 2),
            "speedup": (
                round(rebuild_us / incremental_us, 2)
                if incremental_us > 0
                else float("inf")
            ),
            "cycle_rebuilds": scheduler.stats.cycle_rebuilds,
        }
        rows.append(row)
        print(
            f"{row['rules']:>7} {row['rebuild_us_per_op']:>11.1f} "
            f"{row['incremental_us_per_op']:>15.2f} "
            f"{row['speedup']:>7.1f}x"
        )

    path = write_bench_artifact(
        "cycle",
        {
            "bench": "cycle_maintenance_incremental_vs_rebuild",
            "unit": "us_per_churn_op",
            "gate_speedup": GATE_SPEEDUP,
            "rows": rows,
        },
    )
    print(f"\nartifact: {path}")

    # CI gate: delta maintenance must beat rebuild-per-FlowMod by >= 5x
    # at every measured size (the ISSUE gate names >= 16k rules; the
    # smaller CI-scaled sizes clear it by a wide margin too).
    for row in rows:
        assert row["speedup"] >= GATE_SPEEDUP, (
            f"cycle maintenance speedup {row['speedup']:.1f}x below "
            f"{GATE_SPEEDUP}x at {row['rules']} rules"
        )
        assert row["cycle_rebuilds"] == 1
