"""Tests for probe pipelining: windowed steady-state monitoring on one
reserved value per switch (probe identity is the nonce)."""

import statistics

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catching import CATCH_PRIORITY, FILTER_PRIORITY
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.fleet import FleetDeployment
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.network import Network
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.switches.profiles import OVS
from repro.topology.generators import star


# ----- catching rules do not grow with the window ------------------------


class TestCatchRulesIndependentOfWindow:
    """The reserved value names the switch's colour, not the probe, so
    a deeper window installs nothing extra (the Figure 9 metric)."""

    @pytest.mark.parametrize("window", [1, 2, 4, 8])
    @pytest.mark.parametrize("strategy", [1, 2])
    def test_rule_count_per_switch(self, strategy, window):
        topology = nx.petersen_graph()
        deployment = FleetDeployment(
            topology,
            strategy=strategy,
            config=MonitorConfig(probe_window=window),
            dynamic=False,
        )
        colors = deployment.plan.num_reserved_values
        for node in topology.nodes:
            installed = deployment.network.switch(node).dataplane.rules()
            catches = [r for r in installed if r.priority == CATCH_PRIORITY]
            filters = [r for r in installed if r.priority == FILTER_PRIORITY]
            if strategy == 1:
                assert (len(catches), len(filters)) == (colors - 1, 0)
            else:
                assert (len(catches), len(filters)) == (1, colors - 1)
            expected = deployment.monitor(node).expected.rules()
            assert len(expected) == len(catches) + len(filters)


# ----- windowed steady-state monitoring ---------------------------------


def windowed_setup(
    window,
    num_rules=20,
    probe_rate=500.0,
    seed=3,
    profile=None,
):
    sim = Simulator()
    net = Network(
        sim,
        star(4),
        seed=seed,
        profiles=profile if profile is not None else OVS,
    )
    system = MonocleSystem(
        net,
        config=(
            MonitorConfig(probe_rate=probe_rate)
            if window is None  # probe_window left at its default
            else MonitorConfig(probe_rate=probe_rate, probe_window=window)
        ),
        dynamic=False,
    )
    rules = []
    for i in range(num_rules):
        leaf = f"leaf{i % 4}"
        rule = Rule(
            priority=100,
            match=Match.build(nw_dst=0x0A000000 + i),
            actions=output(net.port_toward["hub"][leaf]),
        )
        system.preinstall_production_rule("hub", rule)
        rules.append(rule)
    return sim, net, system, rules


class TestWindowedMonitor:
    def test_window_fills_and_probes_confirm(self):
        sim, _net, system, _rules = windowed_setup(window=4)
        monitor = system.monitor("hub")
        assert monitor.config.probe_window == 4
        monitor.start_steady_state()
        sim.run_for(0.5)
        assert monitor.window_peak == 4
        assert monitor.probes_confirmed > 0
        assert not monitor.alarms

    def test_windowed_drop_detected_no_false_alarms(self):
        sim, net, system, rules = windowed_setup(window=4, num_rules=40)
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        sim.run_for(0.05)
        victim = rules[17]
        assert net.switch("hub").fail_rule_in_dataplane(victim)
        sim.run_for(0.5)
        keys = {a.rule.key() for a in monitor.alarms}
        assert keys == {victim.key()}
        assert monitor.alarms[0].kind == "missing"

    def test_deeper_window_detects_a_silent_drop_sooner(self):
        """Detection pays ~uniform(0, cycle/W) + timeout.  On 512 rules
        at 250 probes/s (4 ms ticks, well above the probe RTT, so a
        window really sustains ~W probes per tick), seven silent drops
        per window: W=8's median detection latency is <= 0.35x W=1's,
        W=4's lies between, no window alarms on a rule it did not drop,
        and leaving ``probe_window`` at its default is the W=1 run."""
        runs, medians = {}, {}
        for window in (None, 1, 4, 8):
            sim, net, system, rules = windowed_setup(
                window, num_rules=512, probe_rate=250.0, seed=2015
            )
            monitor = system.monitor("hub")
            monitor.start_steady_state()
            sim.run_for(0.05)
            hub = net.switch("hub")
            rng = DeterministicRandom(2015).fork(0x919E)
            dropped, latencies = set(), []
            for _ in range(7):
                victim = rng.choice(rules)
                dropped.add(victim.key())
                start, t_drop = len(monitor.alarms), sim.now
                assert hub.fail_rule_in_dataplane(victim)
                hits = []
                while not hits and sim.now < t_drop + 2 * 512 / 250 + 1.5:
                    sim.run_for(0.02)
                    hits = [
                        a.time
                        for a in monitor.alarms[start:]
                        if a.rule.key() == victim.key()
                    ]
                assert hits, "dropped rule never detected"
                latencies.append(hits[0] - t_drop)
                hub.dataplane.install(victim)
                sim.run_for(0.3)  # a probe sent before the repair drains
            timeline = [(a.time, a.rule.key(), a.kind) for a in monitor.alarms]
            assert {key for _, key, _ in timeline} <= dropped
            runs[window] = (timeline, latencies)
            medians[window] = statistics.median(latencies)
        assert runs[None] == runs[1]
        assert medians[8] <= 0.35 * medians[1]
        assert medians[8] <= medians[4] <= medians[1]

    @settings(max_examples=12, deadline=None)
    @given(
        window=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_shared_value_resolved_by_nonce(self, window, seed):
        """Concurrent probes of one switch all carry its one reserved
        value; the nonce alone resolves each — no stale deliveries, no
        false alarms, depth within the window — under concurrent
        timeouts (dropped rule)."""
        sim, net, system, rules = windowed_setup(
            window=window, num_rules=12, seed=seed
        )
        monitor = system.monitor("hub")
        field = system.plan.field1
        value = system.plan.value1("hub")
        launched = []
        launch = monitor.launch_probe

        def recording_launch(*args, **kwargs):
            probe = launch(*args, **kwargs)
            launched.append(probe)
            return probe

        monitor.launch_probe = recording_launch
        monitor.start_steady_state()
        victim = rules[seed % 12]
        net.switch("hub").fail_rule_in_dataplane(victim)
        for _ in range(60):
            sim.run_for(0.005)
            live = [p for p in monitor.outstanding.values() if not p.done]
            assert all(dict(p.result.header)[field] == value for p in live)
            if window > 1:
                assert monitor.window_depth <= window
        if window > 1:
            assert monitor.window_peak == window
        # Nothing more to launch: let the window drain.
        monitor.scheduler.next_rules = lambda *args, **kwargs: []
        sim.run_for(1.0)
        # Every launched probe resolved exactly once, by its own nonce.
        assert len({p.nonce for p in launched}) == len(launched)
        assert all(p.done for p in launched)
        assert (
            monitor.probes_confirmed + monitor.probes_timed_out
            == len(launched)
        )
        assert monitor.stale_probes == 0
        assert {a.rule.key() for a in monitor.alarms} <= {victim.key()}
        assert not monitor.outstanding
        assert not monitor._inflight_keys
        assert monitor.window_depth == 0
