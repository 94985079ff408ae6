"""Edge cases for dynamic update handling: non-strict deletes covering
several rules, updates on unmonitorable rules, give-up accounting."""

from repro.core.dynamic import UpdateAck
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.network import Network
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.kernel import Simulator
from repro.switches.profiles import HP_5406ZL, OVS
from repro.topology.generators import triangle


def setup(**config_kwargs):
    sim = Simulator()
    net = Network(
        sim,
        triangle(),
        profiles=lambda n: HP_5406ZL if n == "s3" else OVS,
        seed=17,
    )
    acks = []
    system = MonocleSystem(
        net,
        config=MonitorConfig(**config_kwargs),
        dynamic=True,
        controller_handler=lambda node, msg: acks.append(msg)
        if isinstance(msg, UpdateAck)
        else None,
    )
    return sim, net, system, acks


class TestNonStrictDelete:
    def test_wide_delete_probes_each_victim(self):
        sim, net, system, acks = setup()
        port = net.port_toward["s3"]["s1"]
        # Three rules inside 10.0.0.0/24.
        for i in range(3):
            system.send_to_switch(
                "s3",
                FlowMod(
                    command=FlowModCommand.ADD,
                    match=Match.build(nw_dst=0x0A000000 + i),
                    priority=100,
                    actions=output(port),
                ),
            )
        sim.run_for(3.0)
        assert len(acks) == 3
        # One non-strict delete covering all three (overlaps none of the
        # pending updates because they are already confirmed).
        delete = FlowMod(
            command=FlowModCommand.DELETE,
            match=Match.build(nw_dst=(0x0A000000, 24)),
            priority=0,
        )
        system.send_to_switch("s3", delete)
        sim.run_for(3.0)
        assert len(acks) == 4  # one ack for the whole delete
        for i in range(3):
            assert (
                net.switch("s3").dataplane.get(
                    100, Match.build(nw_dst=0x0A000000 + i)
                )
                is None
            )

    def test_empty_delete_acks(self):
        sim, net, system, acks = setup()
        delete = FlowMod(
            command=FlowModCommand.DELETE,
            match=Match.build(nw_dst=(0x0BAD0000, 16)),
            priority=0,
        )
        system.send_to_switch("s3", delete)
        sim.run_for(1.0)
        assert len(acks) == 1


class TestUnmonitorableUpdates:
    def test_shadowed_add_acked_optimistically(self):
        sim, net, system, acks = setup()
        port1 = net.port_toward["s3"]["s1"]
        match = Match.build(nw_dst=0x0A000009)
        system.send_to_switch(
            "s3",
            FlowMod(
                command=FlowModCommand.ADD,
                match=match,
                priority=200,
                actions=output(port1),
            ),
        )
        sim.run_for(2.0)
        assert len(acks) == 1
        # A second rule under the first with the same match: fully
        # shadowed (never probe-able), still must be forwarded + acked.
        system.send_to_switch(
            "s3",
            FlowMod(
                command=FlowModCommand.ADD,
                match=match,
                priority=50,
                actions=output(net.port_toward["s3"]["s2"]),
            ),
        )
        sim.run_for(2.0)
        assert len(acks) == 2
        assert net.switch("s3").control_table.get(50, match) is not None


class TestGiveUp:
    def test_never_installing_rule_gives_up_after_deadline(self):
        sim, net, system, acks = setup(update_deadline=0.5)
        port = net.port_toward["s3"]["s1"]
        match = Match.build(nw_dst=0x0A000031)
        mod = FlowMod(
            command=FlowModCommand.ADD,
            match=match,
            priority=100,
            actions=output(port),
        )
        # Sabotage: the control channel loses this FlowMod, so Monocle's
        # expected table says installed but the switch never heard of it.
        channel = net.channel("s3")
        original = channel.down_handler
        channel.down_handler = lambda msg: (
            None
            if isinstance(msg, FlowMod) and msg.xid == mod.xid
            else original(msg)
        )
        system.send_to_switch("s3", mod)
        sim.run_for(3.0)
        assert acks == []
        assert system.dynamics["s3"].updates_given_up == 1

    def test_no_piece_probes_an_update_another_piece_gave_up(self):
        """A non-strict DELETE the switch never applies, over two rules.
        Under one, a rule the DELETE does not cover shows the removal:
        a positive piece, whose probe times out at the deadline and
        gives the whole update up.  The other shows its removal only by
        silence: a negative piece, whose rounds each end in an alarm on
        the old state and whose next round is pending when the update
        is given up.  That round must launch nothing."""
        sim, net, system, acks = setup(update_deadline=0.47)
        dynamic = system.dynamics["s3"]
        monitor = dynamic.monitor

        def add(match, priority, to):
            system.send_to_switch(
                "s3",
                FlowMod(
                    command=FlowModCommand.ADD,
                    match=match,
                    priority=priority,
                    actions=output(net.port_toward["s3"][to]),
                ),
            )

        add(Match.build(nw_dst=0x0A000001), 10, "s2")
        for dst in (0x0A000001, 0x0A000002):
            add(Match.build(nw_dst=dst, nw_proto=17), 100, "s1")
        sim.run_for(2.0)
        assert len(acks) == 3
        delete = FlowMod(
            command=FlowModCommand.DELETE,
            match=Match.build(nw_dst=(0x0A000000, 24), nw_proto=17),
            priority=0,
        )
        channel = net.channel("s3")
        original = channel.down_handler
        channel.down_handler = lambda msg: (
            None
            if isinstance(msg, FlowMod) and msg.xid == delete.xid
            else original(msg)
        )
        policies = []
        launch_probe = monitor.launch_probe

        def recording(result, policy, *args, **kwargs):
            policies.append(policy)
            return launch_probe(result, policy, *args, **kwargs)

        monitor.launch_probe = recording
        launched_at_give_up = []
        give_up = dynamic._give_up

        def giving_up(update):
            launched_at_give_up.append(monitor.probes_launched)
            give_up(update)

        dynamic._give_up = giving_up
        system.send_to_switch("s3", delete)
        sim.run_for(3.0)
        assert dynamic.updates_given_up == 1
        assert launched_at_give_up  # the positive piece's timeout
        # One positive probe, and negative rounds up to the deadline.
        assert policies.count(monitor.update_policy) == 1
        assert policies.count(monitor.steady_policy) > 5
        assert monitor.probes_launched == launched_at_give_up[0]
        assert len(acks) == 3
