"""Benchmark: incremental vs from-scratch probe generation under churn.

The paper's dynamic-monitoring hot path regenerates a catching probe
every time a rule near it churns.  This benchmark measures that
regeneration three ways on the same table and churn sequence:

* **from-scratch** — :class:`~repro.core.probegen.ProbeGenerator`
  rebuilds the whole CNF and a fresh solver per probe (the seed
  behaviour);
* **incremental** — :class:`~repro.core.probegen.ProbeGenContext` with
  its probe cache cleared before each call (which production never
  does), so every call goes back to the persistent solver.  What
  persists there is the definitions — match guards, DiffOutcome
  literals, the catching match — plus learned lemmas and heuristics;
  the probe's own constraints are assumed, and its Distinguish chain
  over those guards is emitted for the one solve and retired after it.
  So this arm pays one chain (two short clauses per lower rule) per
  call where from-scratch pays the whole instance: 4-5x at every size.
  (Until probes stopped being stored as per-rule clause groups, a
  remove + re-add left the stored group and the formula unchanged and a
  result memo answered this arm without running CDCL — 21-30x in the
  artifact of that time, for a repetition only this benchmark's
  ``clear_cache()`` could produce: a rule whose constraints are
  unchanged still has a valid cached probe, see the next arm.)
* **revalidate** — the full delta API as the Monitor drives it: the
  stale-marked cached probe is cheaply re-checked against the churned
  table and only re-solved if it actually died.

The table is adversarial for the overlap filter: one hot /8 rule whose
probe interacts with every other rule (half shadowing above, half in the
Distinguish chain below), so the SAT instance grows linearly with table
size — the regime where re-encoding dominates from-scratch time.

Scale: table sizes are capped at ``4096 * REPRO_BENCH_SCALE`` (0.25 in
CI exercises 64..1024; the default 1.0 runs the full 64..4096 sweep).

Writes ``BENCH_probegen.json`` and **fails** if incremental generation
is slower than from-scratch at any measured size >= 512 rules — this is
the CI performance gate for the incremental engine.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import print_header, write_bench_artifact
from repro.core.probegen import ProbeGenContext, ProbeGenerator, verify_probe
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable
from repro.sim.random import DeterministicRandom

CATCH = Match.build(dl_vlan=0xF03)
SIZES = (64, 256, 512, 1024, 2048, 4096)
HOT_PRIORITY = 5000


def _build_table(num_rules: int, rng: DeterministicRandom):
    """One hot /8 rule + ``num_rules - 1`` exact rules inside its prefix.

    Every filler overlaps the hot rule (so the hot probe's SAT instance
    sees the whole table) but fillers are pairwise disjoint.  Half the
    fillers sit above the hot rule (Hit constraints), half below
    (Distinguish chain).
    """
    table = FlowTable(check_overlap=False)
    hot = Rule(
        priority=HOT_PRIORITY,
        match=Match.build(nw_dst=(0x0A000000, 8)),
        actions=output(1),
    )
    table.install(hot)
    fillers = []
    suffixes = rng.sample(range(1, 1 << 22), num_rules - 1)
    for i, suffix in enumerate(suffixes):
        above = i % 2 == 0
        rule = Rule(
            priority=HOT_PRIORITY + 1 + i if above else 1 + i,
            match=Match.build(nw_dst=0x0A000000 + suffix),
            actions=output(2 + i % 3),
        )
        table.install(rule)
        fillers.append(rule)
    return table, hot, fillers


def _verify(table, rule, result) -> None:
    assert result.ok, f"hot probe unexpectedly failed: {result.reason}"
    valid, why = verify_probe(table, rule, result.header, CATCH)
    assert valid, why


def test_incremental_vs_scratch_churn(scale, seed):
    rng = DeterministicRandom(seed).fork(0xABC)
    steps = max(3, int(round(8 * min(scale, 1.0))))
    sizes = [n for n in SIZES if n <= 4096 * scale] or [SIZES[0]]

    print_header(
        "Incremental probe generation under churn "
        "(per-probe ms, median over churn events)"
    )
    print(
        f"{'rules':>6} {'overlap':>8} {'scratch':>10} {'incremental':>12} "
        f"{'revalidate':>11} {'speedup':>8}"
    )

    rows = []
    for num_rules in sizes:
        table, hot, fillers = _build_table(num_rules, rng.fork(num_rules))
        generator = ProbeGenerator(catch_match=CATCH)
        context = ProbeGenContext(generator, table=table)

        # Warm both paths once outside the timed loop.
        scratch_result = generator.generate(table, hot)
        _verify(table, hot, scratch_result)
        warm = context.probe_for(hot)
        _verify(table, hot, warm)

        scratch_ms, incremental_ms, revalidate_ms = [], [], []
        revalidate_solves = 0
        for _ in range(steps):
            victim = rng.choose(fillers)
            context.remove_rule(victim)
            context.add_rule(victim)

            start = time.perf_counter()
            scratch_result = generator.generate(table, hot)
            scratch_ms.append(1e3 * (time.perf_counter() - start))

            # Production path: stale cache entry, revalidate-or-solve.
            solves_before = context.stats.probes_generated
            start = time.perf_counter()
            reval_result = context.probe_for(hot)
            revalidate_ms.append(1e3 * (time.perf_counter() - start))
            revalidate_solves += context.stats.probes_generated - solves_before

            # Forced regeneration: same churn event, no cache at all.
            context.clear_cache()
            start = time.perf_counter()
            incr_result = context.probe_for(hot)
            incremental_ms.append(1e3 * (time.perf_counter() - start))

            # Equivalence: all three paths agree on this table state.
            assert scratch_result.ok == incr_result.ok == reval_result.ok
            _verify(table, hot, scratch_result)
            _verify(table, hot, incr_result)
            _verify(table, hot, reval_result)

        row = {
            "rules": num_rules,
            "overlap": scratch_result.overlapping_rules,
            "steps": steps,
            "scratch_ms": round(statistics.median(scratch_ms), 3),
            "incremental_ms": round(statistics.median(incremental_ms), 3),
            "revalidate_ms": round(statistics.median(revalidate_ms), 3),
            "revalidate_solves": revalidate_solves,
        }
        row["speedup"] = (
            round(row["scratch_ms"] / row["incremental_ms"], 2)
            if row["incremental_ms"] > 0
            else float("inf")
        )
        rows.append(row)
        print(
            f"{row['rules']:>6} {row['overlap']:>8} "
            f"{row['scratch_ms']:>10.2f} {row['incremental_ms']:>12.2f} "
            f"{row['revalidate_ms']:>11.3f} {row['speedup']:>7.1f}x"
        )

    path = write_bench_artifact(
        "probegen",
        {
            "bench": "incremental_probe_generation_under_churn",
            "unit": "ms_per_probe_median",
            "rows": rows,
        },
    )
    print(f"\nartifact: {path}")

    # CI gate: the incremental engine must never lose to from-scratch
    # once tables are big enough for re-encoding to matter.
    for row in rows:
        if row["rules"] >= 512:
            assert row["incremental_ms"] <= row["scratch_ms"], (
                f"incremental probe-gen slower than from-scratch at "
                f"{row['rules']} rules: {row['incremental_ms']:.2f}ms vs "
                f"{row['scratch_ms']:.2f}ms"
            )
