"""Pipelined monitoring: detection latency vs. probe window size.

The paper's §3 steady-state cycle serves one rule per probe tick, so
detection latency on an N-rule table is cycle-bound:
``~uniform(0, N/probe_rate) + probe_timeout``.  PR 10 pipelines the
cycle — a per-switch window of W concurrent outstanding probes, all on
the switch's one §6 reserved header value and attributed by the nonce
in their payload — and each tick tops the window back up, so the
sustained probe rate approaches ``W * probe_rate`` and detection
latency scales toward 1/W.

This benchmark measures that trajectory on one monitored star hub with
a ~1k-rule table (scaled by ``REPRO_BENCH_SCALE``; everything asserted
is simulated time, so a bigger table only adds wall-clock): for each
W ∈ {1, 4, 8}, silently drop a data-plane rule (the §2 failure), wait
for the steady cycle to raise the ``missing`` alarm, repair, repeat.

Writes ``BENCH_pipeline.json`` and **fails** unless

* the W=8 median detection latency is ≤ 0.35x the W=1 median,
* no arm raises a single false alarm (probe pipelining must not
  confuse the catching plane's attribution), and
* the W=1 arm's alarm timeline is byte-identical to a default-config
  run (``probe_window=1`` keeps the paper path exactly).

Throughput note: the window refills once per tick, so the sustained
rate is ``W * probe_rate / (1 + RTT * probe_rate)`` — the probe RTT
(~2 ms on the simulated star) must be well under the tick interval for
the speedup to approach W.  The 250/s probe rate (4 ms ticks) keeps
this benchmark in that regime; at 500/s the same hardware would only
reach ~W/2.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import print_header, write_bench_artifact
from repro.analysis import format_table
from repro.core.monitor import Monitor, MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.network import Network
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.topology.generators import star

NUM_RULES = 1024
#: 4 ms ticks: an order of magnitude above the simulated probe RTT, so
#: the windowed arms actually sustain ~W probes per tick (see module
#: docstring).
PROBE_RATE = 250.0
TIMEOUT = 0.150
REPS = 7
WINDOWS = (1, 4, 8)


class PipelineRig:
    """One monitored star hub; drops are injected straight into the
    data plane (control plane and Monitor both still expect the rule)."""

    def __init__(
        self, window: int | None, seed: int, num_rules: int
    ) -> None:
        self.num_rules = num_rules
        self.sim = Simulator()
        self.net = Network(self.sim, star(4), seed=seed)
        config = dict(probe_rate=PROBE_RATE, probe_timeout=TIMEOUT)
        if window is not None:
            config["probe_window"] = window
        self.system = MonocleSystem(
            self.net,
            config=MonitorConfig(**config),
            dynamic=False,
            probe_policy="round_robin",
        )
        self.rng = DeterministicRandom(seed).fork(0x919E)
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
        self.monitor: Monitor = self.system.monitor("hub")
        self.victim_keys: set[tuple] = set()
        self.monitor.start_steady_state()
        self.sim.run_for(0.05)

    def run_rep(self) -> float:
        """Silently drop one data-plane rule; returns detection latency
        (drop -> first alarm on the victim's key)."""
        victim = self.rng.choose(self.rules)
        victim_key = victim.key()
        self.victim_keys.add(victim_key)
        alarm_start = len(self.monitor.alarms)
        t_drop = self.sim.now
        assert self.net.switch("hub").fail_rule_in_dataplane(victim)

        detection = None
        deadline = (
            t_drop + 2 * self.num_rules / PROBE_RATE + 10 * TIMEOUT
        )
        while self.sim.now < deadline:
            self.sim.run_for(0.02)
            hits = [
                a.time
                for a in self.monitor.alarms[alarm_start:]
                if a.rule.key() == victim_key
            ]
            if hits:
                detection = hits[0] - t_drop
                break
        assert detection is not None, "dropped rule never detected"

        # Repair the data plane, then drain in-flight probes (a probe
        # launched just before the repair may still time out).
        self.net.switch("hub").dataplane.install(victim)
        self.sim.run_for(2 * TIMEOUT)
        return detection

    def false_alarms(self) -> list:
        """Alarms on rules that were never dropped."""
        return [
            a
            for a in self.monitor.alarms
            if a.rule.key() not in self.victim_keys
        ]

    def timeline(self) -> list[tuple[float, tuple, str]]:
        return [
            (a.time, a.rule.key(), a.kind) for a in self.monitor.alarms
        ]


def test_pipeline_detection_latency_by_window(scale, seed):
    num_rules = max(512, int(NUM_RULES * scale))
    cycle_s = num_rules / PROBE_RATE

    results: dict[int, list[float]] = {}
    rigs: dict[int, PipelineRig] = {}
    for window in WINDOWS:
        rig = PipelineRig(window, seed, num_rules)
        results[window] = [rig.run_rep() for _ in range(REPS)]
        rigs[window] = rig
        # Pipelining must never confuse the catching plane: an alarm on
        # a never-dropped rule would mean a probe was mis-attributed.
        assert not rig.false_alarms(), (
            f"W={window}: false alarms {rig.false_alarms()!r}"
        )

    # Paper-path pin: a default config (no probe_window) must produce
    # the exact alarm timeline of the explicit W=1 arm.
    pin = PipelineRig(None, seed, num_rules)
    pin_latencies = [pin.run_rep() for _ in range(REPS)]
    assert pin.timeline() == rigs[1].timeline(), (
        "default-config alarm timeline diverged from probe_window=1"
    )
    assert pin_latencies == results[1]

    print_header(
        f"Pipelined monitoring — silent-drop detection latency by "
        f"window ({num_rules} rules, {PROBE_RATE:.0f} probes/s paced, "
        f"{TIMEOUT * 1e3:.0f} ms timeout, {REPS} reps)"
    )
    rows = []
    table_rows = []
    base_median = statistics.median(results[WINDOWS[0]])
    for window in WINDOWS:
        latencies = results[window]
        monitor = rigs[window].monitor
        median = statistics.median(latencies)
        row = {
            "window": window,
            "median_s": round(median, 4),
            "min_s": round(min(latencies), 4),
            "max_s": round(max(latencies), 4),
            "vs_w1": round(median / base_median, 4),
            "probes_sent": monitor.probes_sent,
            "window_peak": monitor.window_peak,
            "false_alarms": 0,
        }
        rows.append(row)
        table_rows.append(
            [
                window,
                f"{row['median_s']:.3f}",
                f"{row['min_s']:.3f}",
                f"{row['max_s']:.3f}",
                f"{row['vs_w1']:.2f}x",
                row["window_peak"],
                row["probes_sent"],
            ]
        )
    print(
        format_table(
            [
                "W",
                "median s",
                "min s",
                "max s",
                "vs W=1",
                "peak depth",
                "probes",
            ],
            table_rows,
        )
    )
    print(
        f"\ncycle time at W=1 is {cycle_s:.2f}s; detection pays "
        "~uniform(0, cycle/W) + timeout, so the ratio floors at the "
        f"{TIMEOUT:.3f}s probe timeout."
    )

    path = write_bench_artifact(
        "pipeline",
        {
            "bench": "pipeline_detection_latency_by_window",
            "unit": "seconds_detection_latency",
            "rules": num_rules,
            "probe_rate": PROBE_RATE,
            "probe_timeout_s": TIMEOUT,
            "reps": REPS,
            "rows": rows,
        },
    )
    print(f"artifact: {path}")

    medians = {row["window"]: row["median_s"] for row in rows}
    # CI gate: W=8 must cut the W=1 median by at least ~3x (0.35
    # leaves slack for the probe-timeout floor and window stalls while
    # a dead rule's probe holds a slot for the full timeout).
    assert medians[8] <= 0.35 * medians[1], (
        f"W=8 median {medians[8]:.3f}s not <= 0.35x W=1 median "
        f"{medians[1]:.3f}s"
    )
    # Monotone: a wider window never slows detection down.
    assert medians[8] <= medians[4] <= medians[1]
