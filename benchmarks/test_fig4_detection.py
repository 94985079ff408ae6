"""Figure 4 (scheduling arm): detection latency under churn, by policy.

The paper's dynamic-monitoring insight (§4) is that a rule touched by a
recent FlowMod is the likeliest rule to be wrong in the data plane.
This benchmark turns that into a measured, gated trajectory: a steady
stream of updates hits one monitored switch, some of those updates are
*blackholed* (the control plane acknowledges, the data plane silently
ignores — the paper's §2 failure), and we measure how long each probe
policy takes to raise the alarm:

* **round_robin** — the §3 baseline cycle: the victim is probed when
  the cursor happens to reach it, so detection costs ~uniform(0, cycle)
  on top of the update deadline;
* **churn_first** — the churned rule jumps the queue: the promotion is
  held while the dynamic-mode update probe is still in flight and
  served the moment it gives up, so detection tracks the update
  deadline, not the cycle length.

A third arm re-runs round_robin with a 4-deep probe window (PR 10's
pipelining): instead of dodging the cycle like churn_first, it makes
the whole cycle ~4x faster, and is gated to beat the W=1 baseline the
same way.

Writes ``BENCH_fig4.json`` and **fails** unless churn_first's median
detection latency is strictly below round_robin's — closing the
"fig4 reports prose-only" ROADMAP item with a machine-readable gate.
Round-robin itself is property-tested byte-identical to the historical
rebuild-per-FlowMod probe order (tests/test_schedule.py), so this
comparison is against *today's* behaviour, not a strawman.

Scale: ``NUM_RULES = 512 * REPRO_BENCH_SCALE`` (floor 96); repetitions
are fixed so the medians compare like with like across scales.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import print_header, write_bench_artifact
from repro.analysis import format_table
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.network import Network
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, next_xid
from repro.openflow.rule import Rule
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.generators import star

NUM_RULES = 512
PROBE_RATE = 500.0
TIMEOUT = 0.150
#: Dynamic-mode confirmation deadline: a blackholed update's probe
#: gives up after this long, releasing the rule to the steady cycle.
UPDATE_DEADLINE = 0.25
REPS = 7
#: Healthy background updates sent alongside every blackholed one.
BACKGROUND_MODS = 3

#: (policy, probe_window) arms.  The W=4 round-robin arm is the
#: pipelining axis (PR 10): the cycle itself speeds up ~W, attacking
#: the same ~uniform(0, cycle) term that churn_first sidesteps.
ARMS = (
    ("round_robin", 1),
    ("churn_first", 1),
    ("round_robin", 4),
)


def _arm_label(policy: str, window: int) -> str:
    return policy if window == 1 else f"{policy}@W{window}"


class DetectionRig:
    """One monitored star hub under churn, with blackholed updates."""

    def __init__(
        self, policy: str, seed: int, num_rules: int, window: int = 1
    ) -> None:
        self.num_rules = num_rules
        self.sim = Simulator()
        self.net = Network(self.sim, star(4), seed=seed)
        self.system = MonocleSystem(
            self.net,
            config=MonitorConfig(
                probe_rate=PROBE_RATE,
                probe_timeout=TIMEOUT,
                update_deadline=UPDATE_DEADLINE,
                probe_window=window,
            ),
            dynamic=True,
            probe_policy=policy,
        )
        self.rng = DeterministicRandom(seed).fork(0xF164)
        self.rules: list[Rule] = []
        for i in range(num_rules):
            rule = Rule(
                priority=100,
                match=Match.build(nw_dst=0x0A000000 + i),
                actions=output(
                    self.net.port_toward["hub"][f"leaf{i % 4}"]
                ),
            )
            self.system.preinstall_production_rule("hub", rule)
            self.rules.append(rule)
        self.monitor = self.system.monitor("hub")
        self.monitor.start_steady_state()
        self.sim.run_for(0.05)

    def _other_port(self, rule: Rule) -> int:
        # Resolve the rule's *current* actions (an earlier rep may have
        # modified it already) so the update always changes the port.
        live = self.monitor.expected.get(*rule.key())
        assert live is not None
        ports = sorted(self.net.port_toward["hub"].values())
        current = next(iter(live.forwarding_set()))
        return next(p for p in ports if p != current)

    def _modify(self, rule: Rule, blackhole: bool) -> FlowMod:
        mod = FlowMod(
            xid=next_xid(),
            command=FlowModCommand.MODIFY_STRICT,
            match=rule.match,
            priority=rule.priority,
            actions=output(self._other_port(rule)),
        )
        if blackhole:
            self.net.switch("hub").blackhole_flowmod(mod.xid)
        self.system.send_to_switch("hub", mod)
        return mod

    def run_rep(self) -> float:
        """One blackholed update amid healthy churn; returns detection
        latency (update sent -> first alarm on the victim's key)."""
        victims = self.rng.sample(self.rules, 1 + BACKGROUND_MODS)
        victim, background = victims[0], victims[1:]
        alarm_start = len(self.monitor.alarms)
        t_sent = self.sim.now
        self._modify(victim, blackhole=True)
        for rule in background:
            self._modify(rule, blackhole=False)
        victim_key = victim.key()

        detection = None
        deadline = (
            t_sent + UPDATE_DEADLINE + 2 * self.num_rules / PROBE_RATE + 1.0
        )
        while self.sim.now < deadline:
            self.sim.run_for(0.02)
            hits = [
                a.time
                for a in self.monitor.alarms[alarm_start:]
                if a.rule.key() == victim_key
            ]
            if hits:
                detection = hits[0] - t_sent
                break
        assert detection is not None, "blackholed update never detected"

        # Repair: copy the control plane's (new) rule into the data
        # plane, then drain in-flight probes before the next rep.
        switch = self.net.switch("hub")
        current = switch.control_table.get(*victim_key)
        assert current is not None
        switch.dataplane.install(current)
        self.sim.run_for(2 * TIMEOUT)
        return detection


def test_fig4_detection_latency_by_policy(scale, seed):
    num_rules = max(96, int(NUM_RULES * scale))
    cycle_s = num_rules / PROBE_RATE

    results: dict[str, list[float]] = {}
    promotions: dict[str, int] = {}
    for policy, window in ARMS:
        label = _arm_label(policy, window)
        rig = DetectionRig(policy, seed, num_rules, window=window)
        results[label] = [rig.run_rep() for _ in range(REPS)]
        promotions[label] = (
            rig.monitor.scheduler.stats.scheduler_promotions
        )
        # The delta-maintenance invariant holds through real churn.
        assert rig.monitor.scheduler.stats.cycle_rebuilds == 1

    print_header(
        f"Figure 4 (scheduling) — blackholed-update detection latency "
        f"({num_rules} rules, {PROBE_RATE:.0f} probes/s, "
        f"{UPDATE_DEADLINE * 1e3:.0f} ms update deadline, {REPS} reps)"
    )
    rows = []
    table_rows = []
    for policy, window in ARMS:
        label = _arm_label(policy, window)
        latencies = results[label]
        row = {
            "policy": policy,
            "window": window,
            "median_s": round(statistics.median(latencies), 4),
            "min_s": round(min(latencies), 4),
            "max_s": round(max(latencies), 4),
            "scheduler_promotions": promotions[label],
        }
        rows.append(row)
        table_rows.append(
            [
                label,
                f"{row['median_s']:.3f}",
                f"{row['min_s']:.3f}",
                f"{row['max_s']:.3f}",
                row["scheduler_promotions"],
            ]
        )
    print(
        format_table(
            ["policy", "median s", "min s", "max s", "promotions"],
            table_rows,
        )
    )
    print(
        f"\ncycle time {cycle_s:.2f}s: round_robin pays ~uniform(0, "
        "cycle) on top of the update deadline; churn_first tracks the "
        "deadline itself."
    )

    path = write_bench_artifact(
        "fig4",
        {
            "bench": "fig4_detection_latency_by_policy",
            "unit": "seconds_detection_latency",
            "rules": num_rules,
            "probe_rate": PROBE_RATE,
            "update_deadline_s": UPDATE_DEADLINE,
            "reps": REPS,
            "rows": rows,
        },
    )
    print(f"artifact: {path}")

    medians = {
        _arm_label(row["policy"], row["window"]): row["median_s"]
        for row in rows
    }
    # CI gate: the churn-first policy must strictly beat the paper-
    # baseline round-robin cycle on median detection latency.
    assert medians["churn_first"] < medians["round_robin"], (
        f"churn_first median {medians['churn_first']:.3f}s not below "
        f"round_robin median {medians['round_robin']:.3f}s"
    )
    # The promotion machinery actually fired (not a no-op win).
    assert promotions["churn_first"] > 0
    # Pipelining gate: a 4-deep probe window must beat the W=1
    # round-robin cycle the same way (it shrinks the cycle itself).
    assert medians["round_robin@W4"] < medians["round_robin"], (
        f"round_robin@W4 median {medians['round_robin@W4']:.3f}s not "
        f"below round_robin median {medians['round_robin']:.3f}s"
    )
