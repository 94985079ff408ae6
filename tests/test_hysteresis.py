"""Tests for the Monitor's graceful-degradation layer: alarm
hysteresis (k-of-n strike confirmation), suspicion re-probes, the
probe retry/backoff edge cases they lean on, and detection through
lossy control channels."""

import statistics

from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.fleet import (
    ChannelDegradation,
    RuleDrop,
    ScenarioSpec,
    run_scenario,
)
from repro.network import Network
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.sim.kernel import Simulator
from repro.topology.generators import star


def star_setup(config, num_rules=20, seed=3):
    sim = Simulator()
    net = Network(sim, star(4), seed=seed)
    system = MonocleSystem(net, config=config, dynamic=False)
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


def blackout(net, sim, duration):
    """100% loss in both directions on every channel until ``duration``.

    Probes enter the monitored switch through a *neighbor's* PacketOut
    and observations return through the catching switch's channel, so
    a single-node overlay would miss the probe path entirely.
    """
    for node in net.channels:
        conditioner = net.conditioner(node)
        token = conditioner.apply(1.0)
        sim.schedule(
            duration,
            lambda c=conditioner, t=token: c.remove(t),
        )


class TestAlarmHysteresis:
    def test_default_config_alarms_on_first_timeout(self):
        sim, net, system, rules = star_setup(
            MonitorConfig(probe_rate=500.0)
        )
        monitor = system.monitor("hub")
        net.switch("hub").fail_rule_in_dataplane(rules[5])
        monitor.start_steady_state()
        sim.run_for(0.5)
        assert monitor.alarms
        assert monitor.alarms_suppressed == 0
        assert not monitor.suspicion

    def test_confirmations_suppress_early_strikes(self):
        first_alarm = {}
        for confirmations in (1, 3):
            sim, net, system, rules = star_setup(
                MonitorConfig(
                    probe_rate=500.0,
                    alarm_confirmations=confirmations,
                )
            )
            monitor = system.monitor("hub")
            net.switch("hub").fail_rule_in_dataplane(rules[5])
            monitor.start_steady_state()
            sim.run_for(1.0)
            assert monitor.alarms, (
                f"k={confirmations}: a persistently missing rule must "
                "still alarm"
            )
            assert monitor.alarms[0].rule.cookie == rules[5].cookie
            first_alarm[confirmations] = monitor.alarms[0].time
            if confirmations == 3:
                # Two strikes swallowed per raised alarm.
                assert monitor.alarms_suppressed >= 2
        # Hysteresis trades detection latency for loss tolerance: the
        # confirmed alarm lands strictly later than the immediate one.
        assert first_alarm[3] > first_alarm[1]

    def test_transient_blackout_suppressed_without_alarm(self):
        sim, net, system, rules = star_setup(
            MonitorConfig(probe_rate=500.0, alarm_confirmations=3)
        )
        monitor = system.monitor("hub")
        blackout(net, sim, 0.2)
        monitor.start_steady_state()
        sim.run_for(1.0)
        # Probes lost to the blackout struck but never confirmed
        # missing: once the channel healed, re-probes vindicated every
        # rule and cleared the suspicion table.
        assert monitor.alarms == []
        assert monitor.alarms_suppressed > 0
        assert not monitor.suspicion

    def test_confirm_clears_strike_count(self):
        sim, net, system, rules = star_setup(
            MonitorConfig(probe_rate=500.0, alarm_confirmations=2)
        )
        monitor = system.monitor("hub")
        blackout(net, sim, 0.16)
        monitor.start_steady_state()
        sim.run_for(1.0)
        assert monitor.alarms == []
        assert not monitor.suspicion

    def test_lossy_channels_detect_all_faults_no_false_alarm(self):
        """A ring of 8 (6 rules each, 100 probes/s, three strikes per
        alarm) whose channels lose 1-30 % of messages both ways from
        t = 0.2 s, with two rules dropped later.  At every loss level
        both drops are detected, no alarm fires on a healthy rule, and
        the median detection stays within 2x the loss-free run.  At 20
        and 30 % the loss bites: retries send more probes and the
        hysteresis swallows more strikes than without loss."""
        drops = (
            RuleDrop(at=0.6, node="sw1", rule_index=1),
            RuleDrop(at=1.1, node="sw5", rule_index=3),
        )
        runs = {}
        for loss in (0.0, 0.01, 0.05, 0.2, 0.3):
            lossy = tuple(
                ChannelDegradation(at=0.2, node=f"sw{i}", loss=loss)
                for i in range(8)
                if loss
            )
            metrics = run_scenario(
                ScenarioSpec(
                    topology="ring",
                    size=8,
                    duration=2.0,
                    seed=2015,
                    rules_per_switch=6,
                    probe_rate=100.0,
                    alarm_confirmations=3,
                    failures=lossy + drops,
                )
            ).metrics
            records = [r for r in metrics.detections if not r.injection.chaos]
            assert len(records) == 2
            assert all(record.detected for record in records)
            assert not metrics.false_alarms
            runs[loss] = (
                statistics.median([record.latency for record in records]),
                metrics.probes_sent,
                metrics.alarms_suppressed,
            )
        clean_median, clean_probes, clean_suppressed = runs[0.0]
        for loss, (median, probes, suppressed) in runs.items():
            assert median <= 2 * clean_median
            if loss >= 0.2:
                assert probes > clean_probes
                assert suppressed > clean_suppressed


class TestProbeRetryEdges:
    def _monitor_with_failed_rule(self):
        sim, net, system, rules = star_setup(
            MonitorConfig(probe_rate=500.0)
        )
        monitor = system.monitor("hub")
        net.switch("hub").fail_rule_in_dataplane(rules[0])
        return sim, monitor, rules[0]

    def test_retry_interval_beyond_timeout_sends_once(self):
        sim, monitor, rule = self._monitor_with_failed_rule()
        result = monitor.probe_for_rule(rule)
        monitor.launch_probe(result, retry_interval=0.4)
        sim.run_for(1.0)
        # The first (and only) retry slot lands after the timeout has
        # already resolved the probe: exactly one injection.
        assert monitor.probes_sent == 1
        assert monitor.probes_timed_out == 1

    def test_backoff_caps_at_max_retry_interval(self):
        sent = {}
        for cap in (0.02, 1.0):
            sim, monitor, rule = self._monitor_with_failed_rule()
            result = monitor.probe_for_rule(rule)
            monitor.launch_probe(
                result,
                retry_interval=0.01,
                retries=-1,
                timeout=1.0,
                retry_backoff=4.0,
                max_retry_interval=cap,
            )
            sim.run_for(1.5)
            assert monitor.probes_timed_out == 1
            sent[cap] = monitor.probes_sent
        # Post-grace gaps are min(gap * 4, cap): a tight cap keeps the
        # cadence fast (many injections), a loose one lets the backoff
        # stretch toward the timeout (few).
        assert sent[0.02] > sent[1.0]
        assert sent[0.02] >= 40
        assert sent[1.0] <= 25

    def test_confirmation_cancels_pending_retries(self):
        sim, net, system, rules = star_setup(
            MonitorConfig(probe_rate=500.0)
        )
        monitor = system.monitor("hub")
        result = monitor.probe_for_rule(rules[0])
        monitor.launch_probe(
            result, retry_interval=0.05, retries=5, timeout=0.5
        )
        sim.run_for(1.0)
        # Confirmed within milliseconds; the five retry slots all see
        # a done probe and inject nothing.
        assert monitor.probes_confirmed == 1
        assert monitor.probes_timed_out == 0
        assert monitor.probes_sent == 1
