"""Table 2: probe generation time and probes found.

Paper reference (2.93-GHz Xeon, Cython + PicoSAT):

    Data set   avg [ms]  max [ms]  probes found
    Campus     4.03      5.29      10642 / 10958
    Stanford   1.48      3.85      2442 / 2755

We regenerate the same rows on the synthetic Stanford/Campus ACL tables
(full tables, identical rule counts).  Absolute times differ (pure
Python, this machine), but the ordering (Stanford faster than Campus),
the millisecond scale, and "probes found for the majority of rules"
must hold.

Scale: by default a deterministic sample of rules per table keeps the
run under a couple of minutes; REPRO_BENCH_SCALE=27 probes every rule.
"""

import gc
import random

from repro.analysis import format_table
from repro.core.probegen import ProbeGenerator, verify_probe
from repro.datasets import campus_table, stanford_table
from repro.openflow.match import Match

from .conftest import (
    bench_scale,
    bench_seed,
    print_header,
    write_bench_artifact,
)

CATCH = Match.build(dl_vlan=0xF03)

PAPER = {
    "Stanford": {"avg_ms": 1.48, "max_ms": 3.85, "found": 2442, "total": 2755},
    "Campus": {"avg_ms": 4.03, "max_ms": 5.29, "found": 10642, "total": 10958},
}


def probe_all(table, rules):
    # Earlier tests of a session leave ~390k objects behind; every full
    # collection the probes trigger (27 in a tier-1 run) would traverse
    # them (~0.17 s each on a 2-core x86 container) and bill that to
    # whichever probe it lands on, so the Stanford-vs-Campus gate would
    # depend on test order.  Frozen, they are skipped; the generator's
    # own garbage is still collected.
    gc.collect()
    gc.freeze()
    try:
        generator = ProbeGenerator(catch_match=CATCH)
        times = []
        found = 0
        for rule in rules:
            result = generator.generate(table, rule)
            times.append(result.generation_time * 1000.0)
            if result.ok:
                found += 1
                valid, why = verify_probe(
                    table, rule, result.header, CATCH
                )
                assert valid, why
        return times, found
    finally:
        gc.unfreeze()


def sample_rules(table, fraction, seed):
    rules = table.rules()
    count = max(50, min(len(rules), int(len(rules) * fraction)))
    rng = random.Random(seed)
    return rng.sample(rules, count)


def test_table2_probe_generation(benchmark):
    scale = bench_scale()
    fraction = min(1.0, 0.037 * scale)  # ~100 & ~400 rules at scale 1
    rows = []
    summary = {}
    artifact_rows = []
    for name, build in (
        ("Stanford", stanford_table), ("Campus", campus_table)
    ):
        table = build()
        rules = sample_rules(table, fraction, bench_seed())
        times, found = probe_all(table, rules)
        avg = sum(times) / len(times)
        worst = max(times)
        found_rate = found / len(rules)
        paper = PAPER[name]
        artifact_rows.append(
            {
                "dataset": name,
                "table_rules": len(table),
                "sampled_rules": len(rules),
                "avg_ms": round(avg, 3),
                "max_ms": round(worst, 3),
                "found": found,
                "found_rate": round(found_rate, 4),
                "paper_avg_ms": paper["avg_ms"],
                "paper_found_rate": round(
                    paper["found"] / paper["total"], 4
                ),
            }
        )
        rows.append(
            [
                name,
                f"{avg:.2f}",
                f"{worst:.2f}",
                f"{found}/{len(rules)} ({100 * found_rate:.1f}%)",
                f"{paper['avg_ms']:.2f}",
                f"{paper['max_ms']:.2f}",
                f"{paper['found']}/{paper['total']} "
                f"({100 * paper['found'] / paper['total']:.1f}%)",
            ]
        )
        summary[name] = (avg, found_rate)

    print_header("Table 2 — probe generation time (measured vs paper)")
    print(
        format_table(
            [
                "data set",
                "avg ms",
                "max ms",
                "found",
                "paper avg",
                "paper max",
                "paper found",
            ],
            rows,
        )
    )

    path = write_bench_artifact(
        "tab2",
        {
            "bench": "table2_probe_generation",
            "unit": "ms_per_probe",
            "rows": artifact_rows,
        },
    )
    print(f"artifact: {path}")

    # CI gates (shape): millisecond scale, Stanford faster than Campus,
    # probes found for the large majority of rules (paper: 89%/97%).
    assert summary["Stanford"][0] < summary["Campus"][0]
    assert summary["Campus"][0] < 100.0  # milliseconds, not seconds
    assert summary["Stanford"][1] > 0.75
    assert summary["Campus"][1] > 0.85

    # The timed kernel: one probe generation on the Stanford table.
    table = stanford_table()
    generator = ProbeGenerator(catch_match=CATCH)
    rules = sample_rules(table, 0.02, bench_seed() + 1)
    index = [0]

    def one_probe():
        rule = rules[index[0] % len(rules)]
        index[0] += 1
        return generator.generate(table, rule)

    benchmark(one_probe)
