"""End-to-end integration scenarios combining the whole stack.

Miniature versions of the paper's experiments: Figure 4 (steady-state
and update detection), Figure 5 (consistent updates on switches with
premature acks) and Figure 8 (batched path installation), each scaled
to run in a second or two.  Everything asserted is simulated time or a
count, so each claim is exact for its seed.
"""

import statistics

import networkx as nx

from repro.controller import ConfirmMode, ConsistentPathUpdate, SdnController
from repro.core.dynamic import UpdateAck
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.fleet import RuleChurn, RuleDrop, ScenarioSpec, run_scenario
from repro.network import Network
from repro.network.traffic import (
    FlowSpec,
    TrafficGenerator,
    decode_flow_payload,
)
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, next_xid
from repro.openflow.rule import Rule
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.switches.profiles import HP_5406ZL, IDEAL, OVS, PICA8
from repro.topology.generators import fat_tree, star, triangle


def star_hub(
    config,
    num_rules,
    seed,
    dynamic=False,
    profiles=OVS,
):
    """A monitored star hub, steady cycle started, with ``num_rules``
    /32 rules spread round-robin over the four leaves."""
    sim = Simulator()
    net = Network(sim, star(4), profiles=profiles, seed=seed)
    system = MonocleSystem(net, config=config, dynamic=dynamic)
    rules = []
    for i in range(num_rules):
        rule = Rule(
            priority=100,
            match=Match.build(nw_dst=0x0A000000 + i),
            actions=output(net.port_toward["hub"][f"leaf{i % 4}"]),
        )
        system.preinstall_production_rule("hub", rule)
        rules.append(rule)
    monitor = system.monitor("hub")
    monitor.start_steady_state()
    return sim, net, system, rules, monitor


def alarm_time(sim, monitor, keys, start, poll, deadline, count=1):
    """Run ``poll`` seconds at a time until ``count`` of the rules in
    ``keys`` have alarmed since alarm index ``start``; the time the
    ``count``-th of them first did, or None by ``deadline``."""
    while sim.now < deadline:
        sim.run_for(poll)
        first = {}
        for alarm in monitor.alarms[start:]:
            if alarm.rule.key() in keys:
                first.setdefault(alarm.rule.key(), alarm.time)
        if len(first) >= count:
            return sorted(first.values())[count - 1]
    return None


def wire_controller(sim, net, use_monocle, config=MonitorConfig()):
    """(controller, confirmation mode, rule installer): updates
    confirmed by Monocle's data-plane acks, or by the switches' own
    barriers."""
    if use_monocle:
        box = {}
        system = MonocleSystem(
            net,
            config=config,
            dynamic=True,
            controller_handler=lambda n, m: box["c"].handle_message(n, m),
        )
        box["c"] = SdnController(sim, send=system.send_to_switch)
        installer = system.preinstall_production_rule
        return box["c"], ConfirmMode.MONOCLE_ACK, installer
    controller = SdnController(
        sim, send=lambda n, m: net.channel(n).send_down(m)
    )
    for node in net.switches:
        net.channel(node).up_handler = (
            lambda m, n=node: controller.handle_message(n, m)
        )

    def installer(node, rule):
        net.switch(node).install_directly(rule)

    return controller, ConfirmMode.BARRIER, installer


class TestMiniFigure4:
    """Steady-state failure detection on a star (mini §8.1.1)."""

    def test_single_rule_failure_detected_within_cycle_plus_timeout(self):
        config = MonitorConfig(
            probe_rate=500.0, probe_timeout=0.150, max_retries=3
        )
        sim, net, _system, rules, monitor = star_hub(
            config,
            100,
            seed=3,
            profiles=lambda n: HP_5406ZL if n == "hub" else OVS,
        )
        sim.run_for(0.3)
        net.switch("hub").fail_rule_in_dataplane(rules[37])
        t_fail = sim.now
        sim.run_for(1.0)
        assert monitor.alarms
        detection = monitor.alarms[0].time - t_fail
        # Cycle = 100/500 = 0.2 s; + timeout 0.15 s; + slack.
        assert 0.1 < detection < 0.45
        assert monitor.alarms[0].rule.cookie == rules[37].cookie

    def test_link_failure_fails_many_rules(self):
        sim, net, _system, rules, monitor = star_hub(
            MonitorConfig(probe_rate=500.0), 40, seed=3
        )
        sim.run_for(0.3)
        net.fail_link("hub", "leaf1")
        sim.run_for(1.5)
        # All 10 rules forwarding to leaf1 should alarm.
        alarmed = {a.rule.cookie for a in monitor.alarms}
        expected = {
            r.cookie
            for r in rules
            if r.forwarding_set() == {net.port_toward["hub"]["leaf1"]}
        }
        assert expected <= alarmed

    def test_detection_between_timeout_and_cycle_plus_timeout(self):
        """Figure 4 on 200 rules (a 0.4 s cycle), three repetitions of
        each scenario: x of y failed rules alarm no sooner than the
        timeout and no later than a cycle plus the timeout (+1 s), and
        a failed link (all 50 rules of a leaf) is detected sooner on
        average than 3 of 10 scattered rule failures."""
        num_rules, rate, timeout = 200, 500.0, 0.150
        cycle = num_rules / rate
        config = MonitorConfig(
            probe_rate=rate, probe_timeout=timeout, max_retries=3
        )
        sim, net, _system, rules, monitor = star_hub(
            config,
            num_rules,
            seed=2015,
            profiles=lambda n: HP_5406ZL if n == "hub" else OVS,
        )
        sim.run_for(cycle + 0.2)  # one full cycle warms the probe cache
        hub = net.switch("hub")
        rng = DeterministicRandom(2015)
        # (alarmed rules needed, rules failed); None fails a leaf's link.
        scenarios = ((1, 1), (5, 5), (3, 5), (3, 10), (5, None))
        means = {}
        for threshold, failures in scenarios:
            detections = []
            for _ in range(3):
                if failures is None:
                    leaf = rng.randint(0, 3)
                    victims = rules[leaf::4]
                    net.fail_link("hub", f"leaf{leaf}")
                else:
                    victims = rng.sample(rules, failures)
                    for rule in victims:
                        hub.fail_rule_in_dataplane(rule)
                keys = {rule.key() for rule in victims}
                start, failed_at = len(monitor.alarms), sim.now
                deadline = failed_at + 2 * cycle + 1.0
                detected = alarm_time(
                    sim, monitor, keys, start, 0.05, deadline, threshold
                )
                assert detected is not None
                detection = detected - failed_at
                assert 0.9 * timeout <= detection <= cycle + timeout + 1.0
                detections.append(detection)
                if failures is None:
                    net.link_between("hub", f"leaf{leaf}").failed = False
                for rule in victims:
                    hub.dataplane.install(rule)
                sim.run_for(0.3)  # let in-flight probes drain
            means[failures] = statistics.mean(detections)
        assert means[None] < means[10]

    def test_a_deeper_window_detects_an_unapplied_update_sooner(self):
        """Measured on 96 rules: an update the switch acknowledges but
        never applies, sent amid three healthy ones, is detected sooner
        when a 4-deep window shrinks the cycle than by the paper's
        rate-paced cycle (medians over 7 repetitions)."""
        medians = {}
        for window in (1, 4):
            config = MonitorConfig(
                probe_rate=500.0,
                probe_timeout=0.150,
                update_deadline=0.25,
                probe_window=window,
            )
            sim, net, system, rules, monitor = star_hub(
                config, 96, seed=2015, dynamic=True
            )
            sim.run_for(0.05)
            hub = net.switch("hub")
            ports = sorted(net.port_toward["hub"].values())
            rng = DeterministicRandom(2015).fork(0xF164)
            latencies = []
            for _ in range(7):
                victim, *background = rng.sample(rules, 4)
                start, sent = len(monitor.alarms), sim.now
                for rule in [victim] + background:
                    live = monitor.expected.get(*rule.key())
                    current = next(iter(live.forwarding_set()))
                    other = next(p for p in ports if p != current)
                    mod = FlowMod(
                        xid=next_xid(),
                        command=FlowModCommand.MODIFY_STRICT,
                        match=rule.match,
                        priority=rule.priority,
                        actions=output(other),
                    )
                    if rule is victim:
                        hub.blackhole_flowmod(mod.xid)
                    system.send_to_switch("hub", mod)
                deadline = sent + 0.25 + 2 * 96 / 500.0 + 1.0
                detected = alarm_time(
                    sim, monitor, {victim.key()}, start, 0.02, deadline
                )
                assert detected is not None
                latencies.append(detected - sent)
                # Repair: the data plane takes the control plane's rule.
                hub.dataplane.install(hub.control_table.get(*victim.key()))
                sim.run_for(0.3)
            medians[window] = statistics.median(latencies)
            stats = monitor.scheduler.stats
            assert stats.cycle_rebuilds == 1  # deltas only, through churn
        assert medians[4] < medians[1]


class TestMiniFigure5:
    """Consistent update with traffic: barriers blackhole, Monocle doesn't."""

    def old_path(self, net, installer, match):
        """s1 -> s2 -> h2."""
        for node, toward in (("s1", "s2"), ("s2", "h2")):
            installer(
                node,
                Rule(
                    priority=50,
                    match=match,
                    actions=output(net.port_toward[node][toward]),
                ),
            )

    def reroute(self, net, controller, confirm, match):
        """The two-phase update of ``match`` onto s1 -> s3 -> s2."""
        return ConsistentPathUpdate(
            controller=controller,
            match=match,
            priority=50,
            old_path=["s1", "s2"],
            new_path=["s1", "s3", "s2"],
            port_toward=net.port_toward,
            final_port=net.port_toward["s2"]["h2"],
            confirm=confirm,
        )

    def run_experiment(self, use_monocle):
        sim = Simulator()
        def profiles(n):
            return PICA8 if n == "s3" else OVS

        net = Network(sim, triangle(), profiles=profiles, seed=13)
        h1 = net.add_host("h1", "s1")
        h2 = net.add_host("h2", "s2")
        match = Match.build(dl_type=0x0800, nw_proto=17, nw_dst=0x0A000002)
        controller, confirm, installer = wire_controller(sim, net, use_monocle)
        self.old_path(net, installer, match)

        spec = FlowSpec(
            flow_id=1,
            header_fields=(
                ("dl_type", 0x0800),
                ("nw_proto", 17),
                ("nw_dst", 0x0A000002),
            ),
        )
        traffic = TrafficGenerator(sim, h1, spec, rate=300.0)
        traffic.start()
        sim.run_for(0.2)

        update = self.reroute(net, controller, confirm, match)
        update.start()
        sim.run_for(3.0)
        traffic.stop()
        sim.run_for(0.2)
        assert update.done

        # Account losses: sequence gaps at the receiver after dedup.
        seqs = sorted(
            seq
            for packet in h2.received
            if (decoded := decode_flow_payload(packet.payload)) is not None
            for _, seq in [decoded]
        )
        sent = h1.sent_count
        lost = sent - len(seqs)
        return lost, sent

    def test_barrier_update_drops_packets(self):
        lost, sent = self.run_experiment(use_monocle=False)
        assert lost > 0  # the premature ack opened a blackhole window

    def test_monocle_update_lossless(self):
        lost, sent = self.run_experiment(use_monocle=True)
        assert lost <= 1  # at most a boundary packet in flight

    def reroute_flows(self, profile, use_monocle, flows=100):
        """Reroute ``flows`` flows at once with ``profile`` as S3; a
        flow drops 300 packets/s from its upstream flip until S3's data
        plane holds its rule.  (Packets dropped, when the last flow's
        update finished.)"""
        sim = Simulator()
        net = Network(
            sim,
            triangle(),
            profiles=lambda n: profile if n == "s3" else OVS,
            seed=2015,
        )
        net.add_host("h1", "s1")
        net.add_host("h2", "s2")
        s3 = net.switch("s3")
        apply, ready = s3._apply_to_dataplane, {}

        def record_ready(mod):
            apply(mod)
            ready.setdefault(mod.match, sim.now)

        s3._apply_to_dataplane = record_ready
        controller, confirm, installer = wire_controller(
            sim, net, use_monocle, MonitorConfig(update_probe_interval=0.002)
        )
        updates = {}
        for i in range(flows):
            match = Match.build(
                dl_type=0x0800, nw_proto=17, nw_dst=0x0A000100 + i
            )
            self.old_path(net, installer, match)
            updates[match] = self.reroute(net, controller, confirm, match)
        for update in updates.values():
            update.start()
        sim.run_for(60.0)
        assert all(update.done for update in updates.values())
        flips = [
            (update.ingress_updated, ready[match])
            for match, update in updates.items()
        ]
        dropped = sum(max(0.0, done - flip) for flip, done in flips)
        return round(dropped * 300.0), max(max(pair) for pair in flips)

    def test_barriers_drop_100_rerouted_flows_monocle_none(self):
        """Figure 5, S3 an HP 5406zl or a Pica8 (both ack early), 100
        flows: barriers drop hundreds of packets, Monocle's acks none,
        in comparable time."""
        for profile in (HP_5406ZL, PICA8):
            barrier_drops, barrier_time = self.reroute_flows(profile, False)
            monocle_drops, monocle_time = self.reroute_flows(profile, True)
            assert barrier_drops > 500
            assert monocle_drops == 0
            assert monocle_time < 2.5 * barrier_time + 0.5


class TestMiniFigure8:
    """Batched path installation in a FatTree with update confirmation."""

    def test_paths_installed_and_confirmed(self):
        sim = Simulator()
        graph = fat_tree(4)
        net = Network(sim, graph, profiles=PICA8, seed=21)
        acks = []
        box = {}

        def handler(node, msg):
            if isinstance(msg, UpdateAck):
                acks.append(msg)
            box["c"].handle_message(node, msg)

        system = MonocleSystem(
            net,
            config=MonitorConfig(update_probe_interval=0.005),
            dynamic=True,
            controller_handler=handler,
        )
        controller = SdnController(sim, send=system.send_to_switch)
        box["c"] = controller

        # Install 10 paths edge->agg->core->agg->edge.
        paths = []
        edges = sorted(n for n in graph.nodes if n.startswith("edge"))
        for i in range(10):
            src, dst = edges[i % len(edges)], edges[(i + 3) % len(edges)]
            paths.append(nx.shortest_path(graph, src, dst))

        done = []
        for i, path in enumerate(paths):
            controller.install_path(
                path=path,
                match=Match.build(nw_dst=0x0A000000 + i),
                priority=100,
                port_toward=net.port_toward,
                final_port=net.switch_facing_ports(path[-1])[0],
                confirm=ConfirmMode.MONOCLE_ACK,
                on_all_confirmed=lambda i=i: done.append(i),
            )
        sim.run_for(20.0)
        assert sorted(done) == list(range(10))
        # Every rule is genuinely in its switch's data plane.
        for i, path in enumerate(paths):
            match = Match.build(nw_dst=0x0A000000 + i)
            for node in path:
                assert net.switch(node).dataplane.get(100, match) is not None

    def install_batched(self, use_monocle, num_paths=80, seed=2015):
        """Figure 8's workload: 40 new random edge-to-edge paths every
        10 ms, installed in two phases (every hop but the ingress,
        confirmed; then the ingress).  Returns when each path's ingress
        went in: Pica8-like switches behind Monocle, or ideal switches
        whose barriers can be trusted."""
        sim = Simulator()
        graph = fat_tree(4)
        profile = PICA8 if use_monocle else IDEAL
        net = Network(sim, graph, profiles=profile, seed=seed)
        rng = DeterministicRandom(seed)
        edges = sorted(n for n in graph.nodes if n.startswith("edge"))
        paths = []
        for _ in range(num_paths):
            src = rng.choice(edges)
            dst = rng.choice([e for e in edges if e != src])
            paths.append(nx.shortest_path(graph, src, dst))
        controller, confirm, _installer = wire_controller(
            sim, net, use_monocle, MonitorConfig(update_probe_interval=0.004)
        )
        completed = {}

        def start_path(index):
            path = paths[index]
            match = Match.build(nw_dst=0x0A000000 + index)
            ingress = output(net.port_toward[path[0]][path[1]])

            def install_ingress():
                controller.install_rule(
                    path[0], match, 100, ingress, confirm=ConfirmMode.NONE
                )
                completed[index] = sim.now

            controller.install_path(
                path=path,
                match=match,
                priority=100,
                port_toward=net.port_toward,
                final_port=net.switch_facing_ports(path[-1])[0],
                confirm=confirm,
                on_all_confirmed=install_ingress,
                skip_ingress=True,
            )

        for index in range(num_paths):
            sim.at(0.010 * (index // 40), lambda i=index: start_path(i))
        sim.run_for(120.0)
        assert sorted(completed) == list(range(num_paths))
        return list(completed.values())

    def test_monocle_installs_in_the_regime_of_ideal_switches(self):
        """Monocle on misbehaving switches finishes 80 paths later than
        ideal switches, but in the same regime, not multiples."""
        ideal = max(self.install_batched(use_monocle=False))
        monocle = max(self.install_batched(use_monocle=True))
        assert monocle >= ideal
        assert monocle < 3.0 * ideal + 1.0

    def test_fleet_runner_detects_a_core_rule_drop(self):
        """The same 20-switch FatTree through ``run_scenario``: churn
        plus a dropped rule on a core switch, detected within a cycle
        and two timeouts, with no false alarm anywhere."""
        spec = ScenarioSpec(
            topology="fat_tree",
            size=4,
            profile="ovs",
            duration=1.0,
            seed=2015,
            rules_per_switch=4,
            workloads=(RuleChurn(rate=40.0),),
            failures=(RuleDrop(at=0.5, node="core0", rule_index=0),),
        )
        metrics = run_scenario(spec).metrics
        assert len(metrics.per_switch) == 20
        assert metrics.all_detected
        assert not metrics.false_alarms
        (drop,) = metrics.detections
        cycle = spec.rules_per_switch / spec.probe_rate
        assert drop.latency < cycle + 2 * spec.probe_timeout
