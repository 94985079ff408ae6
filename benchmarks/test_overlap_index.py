"""Benchmark: tuple-space overlap index vs linear packed scan.

PR 2/3 made the SAT side of probe generation ~30x incremental, leaving
the §5.4 overlap pre-filter itself — an O(N) packed scan per probed
rule — as the dominant steady-state cost on production-scale tables.
This benchmark measures :meth:`FlowTable.overlapping` and
:meth:`FlowTable.lookup` two ways on the same ClassBench-style ACL
tables (constant overlap *density*, so bigger tables mean more
universes, not denser nesting — the realistic large-network regime):

* **linear** — :class:`_LinearScan`, local to this file: one bigint
  expression per rule over a static packed list (the pre-PR-4
  behaviour);
* **indexed** — the default tuple-space index: signature buckets,
  staged anchor hashes, value-bound pruning.

Churn maintenance is measured too: per remove+re-add µs while queries
keep flowing, asserting the index is maintained incrementally
(``index_builds`` stays at 1 — no wholesale rebuild).

A **dense-overlap guard** reruns the comparison on the adversarial
incremental-churn table (every rule overlapping the probed one): the
index must degrade gracefully to the packed scan there, not regress.

Scale: sizes are ``(4096, 16384, 65536) * REPRO_BENCH_SCALE`` (0.25 in
CI exercises 1k/4k/16k; the default 1.0 runs the full sweep).

Writes ``BENCH_overlap.json`` and **fails** unless the indexed path is
>= 5x faster than linear per overlap query on every measured size from
the second one up — this is the CI performance gate for the index.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import print_header, write_bench_artifact
from repro.datasets import sized_acl_table
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.actions import output
from repro.openflow.table import FlowTable
from repro.sim.random import DeterministicRandom

SIZES = (4096, 16384, 65536)
SAMPLE = 48
CHURN_STEPS = 200
GATE_SPEEDUP = 5.0


class _LinearScan:
    """The baseline arm over a static rule list in table order."""

    def __init__(self, rules):
        self.rows = [(*rule.match.packed(), rule) for rule in rules]

    def overlapping(self, match):
        value, mask = match.packed()
        return [r for v, m, r in self.rows if not ((v ^ value) & m & mask)]

    def lookup(self, header):
        for _, _, rule in self.rows:
            if rule.match.matches(header):
                return rule
        return None


def _sample_rules(rules, count, rng):
    return [rules[i] for i in rng.sample(range(len(rules)), count)]


def _time_overlap(table, probes) -> float:
    """Median per-query ms of ``table.overlapping`` over the probes."""
    times = []
    for rule in probes:
        start = time.perf_counter()
        table.overlapping(rule.match)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def _time_lookup(table, headers) -> float:
    times = []
    for header in headers:
        start = time.perf_counter()
        table.lookup(header)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def test_overlap_index_sparse_acl(scale, seed):
    sizes = [max(512, int(n * scale)) for n in SIZES]
    rng = DeterministicRandom(seed).fork(0x7013)

    print_header(
        "Tuple-space overlap index vs linear scan "
        "(sparse ACL tables, per-query ms)"
    )
    print(
        f"{'rules':>7} {'tuples':>7} {'overlap lin':>12} {'overlap idx':>12} "
        f"{'speedup':>8} {'lookup lin':>11} {'lookup idx':>11} "
        f"{'churn us':>9}"
    )

    rows = []
    for num_rules in sizes:
        table = sized_acl_table(num_rules, seed=seed)
        rules = table.rules()
        linear = _LinearScan(rules)
        probes = _sample_rules(rules, min(SAMPLE, len(rules)), rng)
        headers = [
            {name: fm.value for name, fm in rule.match.fields.items()}
            for rule in probes
        ]

        # Warm both engines and check result equivalence on the sample.
        for rule in probes:
            indexed_hit = table.overlapping(rule.match)
            linear_hit = linear.overlapping(rule.match)
            assert [r.key() for r in indexed_hit] == [
                r.key() for r in linear_hit
            ]
        overlap_lin = _time_overlap(linear, probes)
        overlap_idx = _time_overlap(table, probes)
        lookup_lin = _time_lookup(linear, headers)
        lookup_idx = _time_lookup(table, headers)

        # Incremental churn maintenance: remove + re-add while querying.
        victims = _sample_rules(
            rules, min(CHURN_STEPS, len(rules) // 2), rng
        )
        start = time.perf_counter()
        for victim in victims:
            table.remove(victim)
            table.install(victim)
        churn_us = 1e6 * (time.perf_counter() - start) / (2 * len(victims))
        # No wholesale rebuild: the index was built exactly once.
        assert table.index_builds == 1
        # Post-churn queries still match the linear scan (every victim
        # was re-added, and ACL priorities are unique, so table order
        # is unchanged).
        check = probes[0]
        assert [r.key() for r in table.overlapping(check.match)] == [
            r.key() for r in linear.overlapping(check.match)
        ]

        row = {
            "rules": num_rules,
            "tuples": table._index.num_tuples,
            "overlap_linear_ms": round(overlap_lin, 4),
            "overlap_indexed_ms": round(overlap_idx, 4),
            "lookup_linear_ms": round(lookup_lin, 4),
            "lookup_indexed_ms": round(lookup_idx, 4),
            "churn_us_per_op": round(churn_us, 2),
        }
        row["overlap_speedup"] = (
            round(overlap_lin / overlap_idx, 2)
            if overlap_idx > 0
            else float("inf")
        )
        row["lookup_speedup"] = (
            round(lookup_lin / lookup_idx, 2)
            if lookup_idx > 0
            else float("inf")
        )
        rows.append(row)
        print(
            f"{row['rules']:>7} {row['tuples']:>7} "
            f"{row['overlap_linear_ms']:>12.3f} "
            f"{row['overlap_indexed_ms']:>12.3f} "
            f"{row['overlap_speedup']:>7.1f}x "
            f"{row['lookup_linear_ms']:>11.3f} "
            f"{row['lookup_indexed_ms']:>11.3f} "
            f"{row['churn_us_per_op']:>9.1f}"
        )

    path = write_bench_artifact(
        "overlap",
        {
            "bench": "tuple_space_overlap_index_vs_linear",
            "unit": "ms_per_query_median",
            "rows": rows,
        },
    )
    print(f"\nartifact: {path}")

    # CI gate: sublinear indexing must beat the linear scan by >= 5x on
    # sparse tables once they are big enough for O(N) to matter.
    for row in rows[1:]:
        assert row["overlap_speedup"] >= GATE_SPEEDUP, (
            f"overlap index speedup {row['overlap_speedup']:.1f}x below "
            f"{GATE_SPEEDUP}x at {row['rules']} rules"
        )


def _dense_table(num_rules: int, rng: DeterministicRandom):
    """The incremental-churn adversarial table: everything overlaps the
    hot /8 rule, fillers are pairwise-disjoint exact matches."""
    hot = Rule(
        priority=5000,
        match=Match.build(nw_dst=(0x0A000000, 8)),
        actions=output(1),
    )
    rules = [hot]
    for i, suffix in enumerate(rng.sample(range(1, 1 << 22), num_rules - 1)):
        rules.append(
            Rule(
                priority=(5001 + i) if i % 2 == 0 else (1 + i),
                match=Match.build(nw_dst=0x0A000000 + suffix),
                actions=output(2 + i % 3),
            )
        )
    return rules, hot


def test_overlap_index_dense_degrades_gracefully(scale, seed):
    """When every rule overlaps the query, the index must fall back to
    (per-bucket) packed scanning and stay within 2x of the linear scan."""
    num_rules = max(512, int(4096 * scale))
    rng = DeterministicRandom(seed).fork(0xDE45E)
    rules, hot = _dense_table(num_rules, rng)
    indexed = FlowTable(rules, check_overlap=False)
    linear = _LinearScan(indexed.rules())

    assert [r.key() for r in indexed.overlapping(hot.match)] == [
        r.key() for r in linear.overlapping(hot.match)
    ]
    repeats = 20
    start = time.perf_counter()
    for _ in range(repeats):
        linear.overlapping(hot.match)
    linear_ms = 1e3 * (time.perf_counter() - start) / repeats
    start = time.perf_counter()
    for _ in range(repeats):
        indexed.overlapping(hot.match)
    indexed_ms = 1e3 * (time.perf_counter() - start) / repeats

    print_header("Dense-overlap guard (all rules overlap the query)")
    print(
        f"{num_rules} rules: linear {linear_ms:.3f} ms, "
        f"indexed {indexed_ms:.3f} ms"
    )
    assert indexed_ms <= 2.0 * linear_ms + 0.5, (
        f"index regressed the dense-overlap case: {indexed_ms:.3f}ms vs "
        f"linear {linear_ms:.3f}ms"
    )
