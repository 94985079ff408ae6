"""Tests for the Monitor proxy: expected-table tracking, steady-state
cycling, probe confirmation and alarms — over a real simulated star."""

from dataclasses import replace

import pytest

from repro.core.monitor import MonitorConfig, outcome_observations
from repro.core.multiplexer import MonocleSystem
from repro.openflow.actions import drop, output
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import pack_header
from repro.packets.craft import NOT_IN_PORT, craft_packet
from repro.packets.parse import parse_packet
from repro.network import Network
from repro.sim.kernel import Simulator
from repro.switches.profiles import OVS
from repro.topology.generators import star


def star_setup(
    num_rules=20, probe_rate=500.0, dynamic=False, seed=3, profiles=OVS
):
    sim = Simulator()
    net = Network(sim, star(4), seed=seed, profiles=profiles)
    system = MonocleSystem(
        net, config=MonitorConfig(probe_rate=probe_rate), dynamic=dynamic
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


class TestOutcomeObservations:
    def test_restriction_to_observable_ports(self):
        outcome = RuleOutcome(emissions=((1, 0), (9, 0)))
        observations = outcome_observations(outcome, frozenset({1}))
        assert {port for port, _ in observations} == {1}

    def test_in_port_stripped(self):
        header = pack_header(
            {
                FieldName.IN_PORT: 4,
                FieldName.DL_TYPE: 0x0800,
                FieldName.NW_TOS: 2,
            }
        )
        outcome = RuleOutcome(emissions=((1, header),))
        ((port, seen),) = outcome_observations(outcome, None)
        assert HEADER.unpack(seen)[FieldName.IN_PORT] == 0
        assert HEADER.unpack(seen)[FieldName.NW_TOS] == 2
        assert seen == pack_header(
            {FieldName.DL_TYPE: 0x0800, FieldName.NW_TOS: 2}
        )

    def test_wire_invisible_fields_projected_out(self):
        # nw_tos is not representable on the wire without dl_type=0x0800,
        # so an observer can never see it; the observation model must
        # drop it (an ARP probe's caught copy carries no IP fields).
        header = pack_header(
            {
                FieldName.DL_TYPE: 0x0806,
                FieldName.NW_DST: 0x0A000001,
                FieldName.NW_TOS: 2,
                FieldName.TP_DST: 80,
            }
        )
        outcome = RuleOutcome(emissions=((1, header),))
        ((_port, seen),) = outcome_observations(outcome, None)
        assert HEADER.unpack(seen)[FieldName.NW_TOS] == 0
        assert HEADER.unpack(seen)[FieldName.TP_DST] == 0
        assert HEADER.unpack(seen)[FieldName.NW_DST] == 0x0A000001
        assert seen == pack_header(
            {FieldName.DL_TYPE: 0x0806, FieldName.NW_DST: 0x0A000001}
        )

    def test_a_caught_packet_matches_the_expected_observation(self):
        # The catch packs the parsed header with in_port cleared; that
        # is the emission's projection, whatever in_port the emission
        # carried and whatever invisible bits it held.
        values = {
            FieldName.IN_PORT: 3,
            FieldName.DL_TYPE: 0x0800,
            FieldName.DL_VLAN: 0xFFF,
            FieldName.DL_VLAN_PCP: 5,
            FieldName.NW_PROTO: 1,
            FieldName.TP_SRC: 0x1208,
        }
        header = pack_header(values)
        outcome = RuleOutcome(emissions=((1, header),))
        parsed, _ = parse_packet(craft_packet(header), in_port=7)
        caught = parsed & NOT_IN_PORT  # what handle_caught_probe compares
        assert outcome_observations(outcome, None) == {(1, caught)}


def _observations(monitor, result):
    """The sets computed from scratch, bypassing the memo."""
    return (
        outcome_observations(result.outcome_present, monitor.observable_ports),
        outcome_observations(result.outcome_absent, monitor.observable_ports),
    )


class TestObservationMemo:
    """The present/absent observation sets ride on the ProbeResult they
    were computed from, and only on it."""

    def test_validation_fills_the_memo_and_launch_reads_it(self):
        sim, net, system, rules = star_setup(num_rules=2)
        monitor = system.monitor("hub")
        result = monitor.probe_for_rule(rules[0])
        assert result.observations == _observations(monitor, result)
        memo = result.observations
        ignore = lambda *args: None  # noqa: E731
        present = monitor.launch_probe(
            result, monitor.steady_policy, ignore, ignore
        )
        absent = monitor.launch_probe(
            result, monitor.steady_policy, ignore, ignore, confirm_on="absent"
        )
        assert result.observations is memo
        assert present.target is memo[0] and present.anti is memo[1]
        assert absent.target is memo[1] and absent.anti is memo[0]

    def test_changed_outcome_means_a_new_result_with_fresh_sets(self):
        sim, net, system, rules = star_setup(num_rules=2)
        monitor = system.monitor("hub")
        first = monitor.probe_for_rule(rules[0])
        rewire = FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=rules[0].match,
            priority=rules[0].priority,
            actions=output(net.port_toward["hub"]["leaf3"], nw_tos=5),
        )
        monitor.observe_flowmod(rewire)
        changed = monitor.expected.get(*rules[0].key())
        second = monitor.probe_for_rule(changed)
        assert second is not first
        assert second.observations == _observations(monitor, second)
        assert second.observations[0] != first.observations[0]

    def test_revalidated_probe_drops_the_stale_sets(self):
        """Same probe packet, new rule-absent outcome: the refreshed
        result is a ``replace`` copy and must not inherit the memo."""
        sim, net, system, rules = star_setup(num_rules=1)
        monitor = system.monitor("hub")
        first = monitor.probe_for_rule(rules[0])
        assert first.observations[1] == frozenset()  # absent: dropped
        fallback = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.wildcard(),
            priority=10,
            actions=output(net.port_toward["hub"]["leaf2"]),
        )
        monitor.observe_flowmod(fallback)
        second = monitor.probe_for_rule(rules[0])
        assert monitor.probe_context.stats.revalidations == 1
        assert second is not first and second.header == first.header
        assert second.observations == _observations(monitor, second)
        assert second.observations[1] != frozenset()

    def test_unvalidated_modification_probe_gets_its_sets_at_launch(self):
        """Dynamic mode probes a MODIFY with a result generated on an
        altered table, which no ``validate_result`` hook ever sees."""
        sim, net, system, rules = star_setup(num_rules=3, dynamic=True)
        monitor = system.monitor("hub")
        modify = FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=rules[0].match,
            priority=rules[0].priority,
            actions=output(net.port_toward["hub"]["leaf3"]),
        )
        system.dynamic("hub").from_controller(modify)
        (probe,) = monitor.outstanding.values()
        assert probe.result.observations == _observations(
            monitor, probe.result
        )
        assert probe.target == probe.result.observations[0]
        assert probe.target != probe.anti
        sim.run_for(0.5)
        assert system.dynamic("hub").updates_confirmed == 1


class TestExpectedTableTracking:
    def test_flowmods_tracked_and_forwarded(self):
        sim, net, system, _ = star_setup(num_rules=0)
        monitor = system.monitor("hub")
        mod = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(nw_dst=0x0A000063),
            priority=50,
            actions=output(1),
        )
        monitor.from_controller(mod)
        sim.run_for(0.5)
        assert monitor.expected.get(50, mod.match) is not None
        assert net.switch("hub").control_table.get(50, mod.match) is not None

    def test_delete_tracked(self):
        sim, net, system, rules = star_setup(num_rules=3)
        monitor = system.monitor("hub")
        mod = FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=rules[0].match,
            priority=rules[0].priority,
        )
        monitor.from_controller(mod)
        assert monitor.expected.get(rules[0].priority, rules[0].match) is None

    def test_probe_cache_invalidated_by_overlap(self):
        sim, net, system, rules = star_setup(num_rules=2)
        monitor = system.monitor("hub")
        first = monitor.probe_for_rule(rules[0])
        assert monitor.probe_for_rule(rules[0]) is first  # cached
        overlapping = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.wildcard(),
            priority=10,
            actions=output(1),
        )
        monitor.observe_flowmod(overlapping)
        assert monitor.probe_for_rule(rules[0]) is not first

    def test_probe_cache_survives_non_intersecting_flowmod(self):
        """Regression: a FlowMod used to blow away cached probes it
        could not possibly affect.  Invalidation must be limited to
        cached probes whose rule match intersects the changed rule."""
        sim, net, system, rules = star_setup(num_rules=4)
        monitor = system.monitor("hub")
        cached = [monitor.probe_for_rule(rule) for rule in rules]
        generated = monitor.probe_context.stats.probes_generated
        # Overlaps nothing: a different exact destination.
        disjoint = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(nw_dst=0x0B000000),
            priority=60,
            actions=output(1),
        )
        monitor.observe_flowmod(disjoint)
        for rule, before in zip(rules, cached):
            assert monitor.probe_for_rule(rule) is before
        stats = monitor.probe_context.stats
        # The disjoint FlowMod triggered zero SAT work: the new rule's
        # own probe aside, nothing was invalidated or regenerated.
        assert stats.probes_generated == generated
        assert stats.invalidations == 0
        assert stats.cache_hits >= len(rules)

    def test_intersecting_flowmod_revalidates_instead_of_resolving(self):
        """A churned neighbour that leaves a cached probe packet usable
        must be served by cheap revalidation, not a fresh SAT solve."""
        sim, net, system, rules = star_setup(num_rules=2)
        monitor = system.monitor("hub")
        monitor.probe_for_rule(rules[0])
        generated = monitor.probe_context.stats.probes_generated
        # Lower-priority rule overlapping rule 0 only in match space;
        # the existing probe header still hits rule 0 first.
        shadowed = FlowMod(
            command=FlowModCommand.ADD,
            match=rules[0].match,
            priority=5,
            actions=output(2),
        )
        monitor.observe_flowmod(shadowed)
        refreshed = monitor.probe_for_rule(rules[0])
        stats = monitor.probe_context.stats
        assert refreshed.ok
        assert stats.revalidations == 1
        assert stats.probes_generated == generated  # no new solve


class TestSteadyState:
    def test_healthy_rules_confirmed(self):
        sim, net, system, _ = star_setup(num_rules=12)
        system.monitor("hub").start_steady_state()
        sim.run_for(0.5)
        monitor = system.monitor("hub")
        assert monitor.probes_sent > 0
        assert monitor.probes_confirmed > 0
        assert monitor.alarms == []
        assert monitor.probes_timed_out == 0

    def test_failed_rule_alarms(self):
        sim, net, system, rules = star_setup(num_rules=12)
        system.monitor("hub").start_steady_state()
        sim.run_for(0.2)
        net.switch("hub").fail_rule_in_dataplane(rules[5])
        failure_time = sim.now
        sim.run_for(1.0)
        alarms = system.monitor("hub").alarms
        assert alarms
        assert alarms[0].rule.cookie == rules[5].cookie
        # Detection within cycle time (12 rules / 500 per s) + timeout.
        assert alarms[0].time - failure_time < 0.5

    def test_misbehaving_rule_alarms(self):
        sim, net, system, rules = star_setup(num_rules=8)
        system.monitor("hub").start_steady_state()
        sim.run_for(0.2)
        # Corrupt: rule forwards to the wrong leaf.
        wrong_port = net.port_toward["hub"]["leaf3"]
        target = rules[0]
        if target.forwarding_set() == {wrong_port}:
            wrong_port = net.port_toward["hub"]["leaf2"]
        net.switch("hub").corrupt_rule_in_dataplane(target, output(wrong_port))
        sim.run_for(1.0)
        alarms = system.monitor("hub").alarms
        assert alarms
        assert alarms[0].rule.cookie == target.cookie
        assert alarms[0].kind == "misbehaving"

    def test_one_alarm_per_probe(self):
        """A corrupted rule's probe is caught once per retry; the first
        inexplicable observation must retire the probe, so its nonce
        shows up in exactly one alarm (no per-retry duplicates, no
        trailing ``missing`` from the same probe's timeout)."""
        sim, net, system, rules = star_setup(num_rules=8)
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        sim.run_for(0.2)
        target = rules[0]
        wrong_port = next(
            port
            for port in sorted(net.port_toward["hub"].values())
            if port not in target.forwarding_set()
        )
        net.switch("hub").corrupt_rule_in_dataplane(target, output(wrong_port))
        sim.run_for(1.0)
        assert len(monitor.alarms) >= 2  # re-detected every cycle
        nonces = [alarm.nonce for alarm in monitor.alarms]
        assert len(nonces) == len(set(nonces))
        assert {alarm.kind for alarm in monitor.alarms} == {"misbehaving"}
        assert {a.rule.key() for a in monitor.alarms} == {target.key()}

    @pytest.mark.parametrize("command", ["DELETE_STRICT", "MODIFY_STRICT"])
    def test_flowmod_retires_the_steady_probe_of_the_rule_it_touches(
        self, command
    ):
        """The switch may apply the FlowMod before the probe in flight
        arrives: silence (DELETE) or the new outcome (MODIFY) would be
        an alarm on a rule that did what it was told."""
        sim, net, system, rules = star_setup(num_rules=1)
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        sim.run_for(0.0021)  # the first tick has launched, not confirmed
        (probe,) = monitor.outstanding.values()
        assert probe.steady and probe.result.rule is rules[0]
        system.send_to_switch(
            "hub",
            FlowMod(
                command=FlowModCommand[command],
                match=rules[0].match,
                priority=rules[0].priority,
                actions=output(net.port_toward["hub"]["leaf3"]),
            ),
        )
        assert probe.done and not monitor.outstanding
        assert monitor.window_depth == 0
        sim.run_for(0.5)
        assert monitor.alarms == []
        if command == "MODIFY_STRICT":
            assert monitor.probes_confirmed > 0  # the new rule, probed on

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize(
        "offset, races",
        [(0.0, True), (0.0005, True), (0.0015, False), (0.0029, False)],
    )
    def test_add_above_the_probed_rule_retires_its_probe(
        self, dynamic, offset, races
    ):
        """A steady probe enters the hub through a leaf, here one that
        takes 1 ms per PacketOut, so it reaches the hub ~2.3 ms after
        it leaves; an ADD down the hub's own channel applies ~1.3 ms
        after it is sent.  Sent less than ~1 ms behind the probe, an
        ADD above the probed rule wins: the probe meets the new rule
        and leaves toward its port, an outcome that would alarm
        ``misbehaving`` on a rule that did what it was told."""
        slow_packetout = replace(OVS, packetout_rate=1000.0)
        sim, net, system, rules = star_setup(
            dynamic=dynamic,
            profiles=lambda n: OVS if n == "hub" else slow_packetout,
        )
        monitor = system.monitor("hub")
        victim = rules[7]
        other = net.port_toward["hub"]["leaf0"]
        assert victim.forwarding_set() != {other}
        add = FlowMod(
            command=FlowModCommand.ADD,
            match=victim.match,
            priority=200,
            actions=output(other),
        )
        launched, egress = [], {}
        launch, handle = monitor.launch_probe, monitor.handle_caught_probe

        def add_behind_the_first_victim_probe(result, *args, **kwargs):
            probe = launch(result, *args, **kwargs)
            if result.rule is victim and not launched:
                launched.append(probe)
                sim.schedule(offset, lambda: system.send_to_switch("hub", add))
            return probe

        def record_egress(egress_port, values, metadata):
            egress.setdefault(metadata.nonce, egress_port)
            handle(egress_port, values, metadata)

        monitor.launch_probe = add_behind_the_first_victim_probe
        monitor.handle_caught_probe = record_egress
        monitor.start_steady_state()
        sim.run_for(0.5)
        (probe,) = launched
        # The probe's caught copy says which rule it met at the hub.
        assert (egress[probe.nonce] == other) is races
        assert probe.done
        assert monitor.alarms == []

    def test_cycle_skips_catch_rules(self):
        sim, net, system, _ = star_setup(num_rules=4)
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        from repro.core.catching import CATCH_PRIORITY

        assert len(monitor.scheduler) == 4
        for key in monitor.scheduler.keys():
            assert key[0] != CATCH_PRIORITY

    def test_probe_rate_respected(self):
        sim, net, system, _ = star_setup(num_rules=12, probe_rate=100.0)
        system.monitor("hub").start_steady_state()
        sim.run_for(1.0)
        monitor = system.monitor("hub")
        # <= rate * time (+retries which only happen on failures).
        assert monitor.probes_sent <= 110

    def test_negative_probe_for_drop_rule(self):
        sim, net, system, rules = star_setup(num_rules=4)
        drop_rule = Rule(
            priority=200, match=Match.build(nw_dst=0x0A0000FF), actions=drop()
        )
        system.preinstall_production_rule("hub", drop_rule)
        monitor = system.monitor("hub")
        result = monitor.probe_for_rule(drop_rule)
        # Drop over forwarding-free table region: absent -> miss-drop,
        # so unmonitorable... unless a default exists.  Install default.
        default = Rule(priority=1, match=Match.wildcard(), actions=output(
            net.port_toward["hub"]["leaf0"]))
        system.preinstall_production_rule("hub", default)
        result = monitor.probe_for_rule(drop_rule)
        assert result.ok
        assert not result.expects_return()
        monitor.start_steady_state()
        sim.run_for(1.0)
        # Healthy drop rule: silence is success, no alarms for it.
        assert all(a.rule.cookie != drop_rule.cookie for a in monitor.alarms)


class TestUnmonitorableHandling:
    def test_shadowed_rule_skipped_not_alarmed(self):
        sim, net, system, rules = star_setup(num_rules=2)
        shadowed = Rule(
            priority=10,  # below rules[0] (100), same match
            match=rules[0].match,
            actions=output(net.port_toward["hub"]["leaf1"]),
        )
        system.preinstall_production_rule("hub", shadowed)
        monitor = system.monitor("hub")
        monitor.start_steady_state()
        sim.run_for(0.5)
        assert monitor.rules_unmonitorable > 0
        assert all(a.rule.cookie != shadowed.cookie for a in monitor.alarms)
