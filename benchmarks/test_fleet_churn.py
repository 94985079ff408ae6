"""Benchmark: fleet-wide probe generation with shared solver contexts.

Replicated configurations are the common case at fleet scale: the same
ACL pushed to every edge switch.  This benchmark deploys a star with
``>= 8`` leaves carrying *identical* flow tables, drives an identical
(replicated) churn + re-probe workload through every leaf's Monitor,
and measures total probe-generation wall-clock two ways:

* **independent** — ``share_contexts=False``: every switch owns its
  own :class:`~repro.core.probegen.ProbeGenContext` (the PR-2
  behaviour); N replicas pay N solver warm-ups and N solves per probe.
* **shared** — ``share_contexts=True``: the registry fingerprints the
  tables, dedupes the replicas into one context, and replays the
  replicated churn through the shared operation log, so the fleet pays
  for one solver and the siblings take cache hits.

Both modes must produce byte-identical probes (same deterministic
solver, same per-switch operation sequences); the benchmark asserts
this for every (switch, rule) pair as a safety net on top of the
dedicated equivalence property test.

Writes ``BENCH_fleet.json`` and **fails** if the shared registry is
less than 3x faster fleet-wide — this is the CI performance gate for
cross-switch context sharing.
"""

from __future__ import annotations

import gc
import time

from benchmarks.conftest import print_header, write_bench_artifact
from repro.fleet.deployment import FleetDeployment
from repro.openflow.actions import drop, output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.rule import Rule
from repro.sim.random import DeterministicRandom
from repro.topology.generators import star

LEAVES = 8
HOT_PRIORITY = 5000
SPEEDUP_GATE = 3.0


def _leaf_rule_specs(num_rules: int, rng: DeterministicRandom):
    """(priority, match, actions) triples of one replicated leaf table.

    Same adversarial shape as the per-switch churn benchmark: one hot
    /8 rule whose probe interacts with everything, fillers half above
    (Hit constraints) and half below (Distinguish chain).
    """
    specs = [
        (HOT_PRIORITY, Match.build(nw_dst=(0x0A000000, 8)), output(1))
    ]
    suffixes = rng.sample(range(1, 1 << 22), num_rules - 1)
    for i, suffix in enumerate(suffixes):
        above = i % 2 == 0
        specs.append(
            (
                HOT_PRIORITY + 1 + i if above else 1 + i,
                Match.build(nw_dst=0x0A000000 + suffix),
                drop(),  # deny entries, ACL-style: distinguishable
            )
        )
    return specs


def _deploy(share: bool, specs, seed: int):
    """A star fleet whose leaves all carry the replicated table."""
    deployment = FleetDeployment(
        star(LEAVES), seed=seed, dynamic=False, share_contexts=share
    )
    leaves = [n for n in deployment.nodes if n != "hub"]
    assert len(leaves) >= 8, "gate requires >= 8 duplicate-table switches"
    for leaf in leaves:
        for priority, match, actions in specs:
            deployment.install_production_rule(
                leaf, Rule(priority=priority, match=match, actions=actions)
            )
    return deployment, leaves


def _drive(deployment, leaves, specs, churn_specs) -> dict:
    """The replicated workload: full probe sweep, then churn rounds.

    Every leaf probes every rule (steady-state warm-up), then each
    churn round modifies one filler on *every* leaf (the replicated
    FlowMod wave) and re-probes the hot rule plus the victim on every
    leaf.  Returns per-(switch, rule-key) probe bytes for the
    cross-mode equivalence check and the elapsed generation seconds.
    """
    probes: dict = {}

    def probe(leaf, priority, match):
        monitor = deployment.monitor(leaf)
        rule = monitor.expected.get(priority, match)
        assert rule is not None
        result = monitor.probe_for_rule(rule)
        # Shadowed deny entries are legitimately unmonitorable (§3.5);
        # the equivalence check still covers them via (ok, reason).
        probes[(leaf, priority, match)] = (
            result.ok,
            result.reason,
            result.packet,
            None
            if result.header is None
            else tuple(sorted(result.header.items())),
            result.outcome_present,
            result.outcome_absent,
        )
        return result

    # Each arm starts from a collected heap, as ``bench/`` does before
    # timed work: the shared arm is ~10 ms at CI's scale, and a pause
    # for the session's earlier garbage landing in it (rather than in
    # whichever arm allocates more) would decide the ratio.
    gc.collect()
    start = time.perf_counter()
    hot_ok = 0
    for leaf in leaves:
        for priority, match, _actions in specs:
            result = probe(leaf, priority, match)
            if priority == HOT_PRIORITY and result.ok:
                hot_ok += 1
    assert hot_ok == len(leaves), "hot rule must be monitorable everywhere"
    for round_index, (priority, match, actions) in enumerate(churn_specs):
        for leaf in leaves:
            deployment.monitor(leaf).observe_flowmod(
                FlowMod(
                    command=FlowModCommand.MODIFY_STRICT,
                    match=match,
                    priority=priority,
                    actions=actions,
                )
            )
        for leaf in leaves:
            probe(leaf, HOT_PRIORITY, specs[0][1])
            probe(leaf, priority, match)
    elapsed = time.perf_counter() - start
    return {"probes": probes, "seconds": elapsed}


def test_fleet_shared_context_churn(scale, seed):
    rng = DeterministicRandom(seed).fork(0xF1EE7C)
    num_rules = max(16, int(round(96 * min(scale, 1.0))))
    rounds = max(3, int(round(12 * min(scale, 1.0))))
    specs = _leaf_rule_specs(num_rules, rng.fork(1))

    # Churn: flip a below-the-hot-rule deny filler to a rewriting
    # forward each round (a real table change — a re-solve on the
    # first replica, shared-log replay on the rest).
    fillers = [s for s in specs[1:] if s[0] < HOT_PRIORITY]
    churn_specs = []
    for i in range(rounds):
        priority, match, _actions = fillers[i % len(fillers)]
        churn_specs.append(
            (priority, match, output(1, nw_tos=0x10 + 8 * (i % 2)))
        )

    print_header(
        "Fleet-wide probe generation: shared vs independent contexts "
        f"({LEAVES} duplicate-table leaves)"
    )

    dep_ind, leaves = _deploy(False, specs, seed)
    independent = _drive(dep_ind, leaves, specs, churn_specs)

    dep_shr, leaves_s = _deploy(True, specs, seed)
    assert leaves_s == leaves
    shared = _drive(dep_shr, leaves_s, specs, churn_specs)

    # Byte-equivalence: deduped generation must produce the exact same
    # probes as per-switch independent generation.
    assert shared["probes"].keys() == independent["probes"].keys()
    for key, probe in independent["probes"].items():
        assert shared["probes"][key] == probe, (
            f"shared probe diverged from independent generation at {key}"
        )

    ind_stats = dep_ind.probegen_stats()
    shr_stats = dep_shr.probegen_stats()
    registry = dep_shr.shared_context_stats()
    speedup = (
        independent["seconds"] / shared["seconds"]
        if shared["seconds"] > 0
        else float("inf")
    )

    row = {
        "switches": LEAVES + 1,
        "duplicate_switches": len(leaves),
        "rules_per_switch": num_rules,
        "churn_rounds": rounds,
        "independent_s": round(independent["seconds"], 4),
        "shared_s": round(shared["seconds"], 4),
        "speedup": round(speedup, 2),
        "independent_solves": ind_stats.probes_generated,
        "shared_solves": shr_stats.probes_generated,
        "shared_cache_hits": shr_stats.cache_hits,
        "tables_fingerprinted": registry.tables_fingerprinted,
        "contexts_created": registry.contexts_created,
        "contexts_deduped": registry.contexts_deduped,
        "contexts_forked": registry.contexts_forked,
    }
    print(
        f"independent: {row['independent_s'] * 1e3:8.1f} ms "
        f"({row['independent_solves']} solves)"
    )
    print(
        f"shared:      {row['shared_s'] * 1e3:8.1f} ms "
        f"({row['shared_solves']} solves, "
        f"{row['shared_cache_hits']} cache hits, "
        f"{row['contexts_deduped']} tables deduped)"
    )
    print(f"speedup:     {row['speedup']:8.1f}x (gate: >= {SPEEDUP_GATE}x)")

    path = write_bench_artifact(
        "fleet",
        {
            "bench": "fleet_shared_context_churn",
            "unit": "seconds_total_probegen",
            "gate_speedup": SPEEDUP_GATE,
            "rows": [row],
        },
    )
    print(f"\nartifact: {path}")

    # Sanity on the dedup machinery itself.
    assert registry.contexts_deduped >= len(leaves) - 1
    assert registry.contexts_forked == 0, "replicated churn must not fork"
    assert shr_stats.probes_generated < ind_stats.probes_generated

    # CI gate: the whole point of fleet-wide sharing.
    assert speedup >= SPEEDUP_GATE, (
        f"shared-context fleet probegen speedup {speedup:.2f}x "
        f"below the {SPEEDUP_GATE}x gate"
    )
