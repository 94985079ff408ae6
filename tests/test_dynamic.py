"""Tests for dynamic (reconfiguration) monitoring: update confirmation,
transient tolerance, overlap queueing, deletions, modifications and
drop-postponing (§4)."""

import gc
import weakref

from repro.core.droppostpone import DROP_TAG_TOS, TAG_DROP_PRIORITY
from repro.core.dynamic import DynamicMonitor, UpdateAck
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.network import Network
from repro.openflow.actions import drop, output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.kernel import Simulator
from repro.switches.profiles import HP_5406ZL, OVS, PICA8
from repro.topology.generators import triangle


def setup(probed_profile=HP_5406ZL, seed=7, **config_kwargs):
    sim = Simulator()
    def profiles(n):
        return probed_profile if n == "s3" else OVS

    net = Network(sim, triangle(), profiles=profiles, seed=seed)
    acks = []
    system = MonocleSystem(
        net,
        config=MonitorConfig(**config_kwargs),
        dynamic=True,
        controller_handler=lambda node, msg: acks.append((sim.now, node, msg))
        if isinstance(msg, UpdateAck)
        else None,
    )
    return sim, net, system, acks


def add_mod(net, dst, to="s1", priority=100):
    port = net.port_toward["s3"][to]
    return FlowMod(
        command=FlowModCommand.ADD,
        match=Match.build(nw_dst=dst),
        priority=priority,
        actions=output(port),
    )


class TestAddConfirmation:
    def test_ack_after_real_dataplane_install(self):
        sim, net, system, acks = setup()
        switch = net.switch("s3")
        install_times = []
        original = switch._apply_to_dataplane
        switch._apply_to_dataplane = lambda m: (
            install_times.append(sim.now),
            original(m),
        )[1]
        mod = add_mod(net, 0x0A000001)
        system.send_to_switch("s3", mod)
        sim.run_for(2.0)
        assert len(acks) == 1
        assert acks[0][2].flowmod_xid == mod.xid
        # The ack came AFTER the data plane actually installed the rule.
        assert acks[0][0] >= install_times[0]
        # ... and within "several ms" of it.
        assert acks[0][0] - install_times[0] < 0.020

    def test_transient_absence_not_alarmed(self):
        sim, net, system, acks = setup()
        system.send_to_switch("s3", add_mod(net, 0x0A000001))
        sim.run_for(2.0)
        assert system.monitor("s3").alarms == []

    def test_reordering_switch_confirmations(self):
        sim, net, system, acks = setup(probed_profile=PICA8)
        mods = [add_mod(net, 0x0A000000 + i) for i in range(10)]
        for mod in mods:
            system.send_to_switch("s3", mod)
        sim.run_for(5.0)
        assert len(acks) == 10
        assert system.dynamics["s3"].updates_confirmed == 10

    def test_update_is_confirmed_or_given_up_never_both(self):
        """The ADD lands on the wrong port and is repaired 50 ms later.
        The first observation neither state explains gives the update
        up and ends its probe, so the repair confirms nothing."""
        sim, net, system, acks = setup()
        switch = net.switch("s3")
        mod = add_mod(net, 0x0A000001)
        wrong = output(net.port_toward["s3"]["s2"])
        original = switch._apply_to_dataplane

        def apply_corrupted(applied):
            original(applied)
            if applied.xid == mod.xid:
                rule = switch.dataplane.get(mod.priority, mod.match)
                switch.corrupt_rule_in_dataplane(rule, wrong)
                sim.schedule(
                    0.050,
                    lambda: switch.corrupt_rule_in_dataplane(
                        rule, mod.actions
                    ),
                )

        switch._apply_to_dataplane = apply_corrupted
        system.send_to_switch("s3", mod)
        sim.run_for(2.0)
        dynamic = system.dynamics["s3"]
        assert dynamic.updates_given_up == 1
        assert dynamic.updates_confirmed == 0
        assert acks == []
        assert system.monitor("s3").probes_alarmed == 1

    def test_multiple_nonoverlapping_updates_in_parallel(self):
        sim, net, system, acks = setup()
        for i in range(5):
            system.send_to_switch("s3", add_mod(net, 0x0A000000 + i))
        # All five forwarded immediately (no queueing): distinct dsts.
        assert system.dynamics["s3"].queue == []
        sim.run_for(3.0)
        assert len(acks) == 5


class TestOverlapQueueing:
    def test_overlapping_update_queued_until_confirmed(self):
        sim, net, system, acks = setup()
        base = add_mod(net, 0x0A000001, priority=100)
        # Overlapping: wildcard dst covers the first rule's match.
        overlapping = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.wildcard(),
            priority=50,
            actions=output(net.port_toward["s3"]["s2"]),
        )
        system.send_to_switch("s3", base)
        system.send_to_switch("s3", overlapping)
        dynamic = system.dynamics["s3"]
        assert len(dynamic.queue) == 1
        # The queued FlowMod must not have reached the switch yet.
        sim.run_for(0.010)
        assert net.switch("s3").control_table.get(50, Match.wildcard()) is None
        sim.run_for(5.0)
        assert dynamic.queue == []
        assert len(acks) == 2
        assert net.switch(
            "s3"
        ).control_table.get(50, Match.wildcard()) is not None

    def test_given_up_update_releases_the_queue(self):
        """The ADD never reaches the switch and is given up at its
        deadline; the wildcard queued behind it goes out then."""
        sim, net, system, acks = setup(update_deadline=0.5)
        lost = add_mod(net, 0x0A000031)
        channel = net.channel("s3")
        original = channel.down_handler
        channel.down_handler = lambda msg: (
            None
            if isinstance(msg, FlowMod) and msg.xid == lost.xid
            else original(msg)
        )
        overlapping = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.wildcard(),
            priority=50,
            actions=output(net.port_toward["s3"]["s2"]),
        )
        system.send_to_switch("s3", lost)
        system.send_to_switch("s3", overlapping)
        dynamic = system.dynamics["s3"]
        assert len(dynamic.queue) == 1
        sim.run_for(3.0)
        assert dynamic.updates_given_up == 1
        assert dynamic.queue == []
        assert len(dynamic._unconfirmed) == 0  # nothing in flight
        assert [ack.flowmod_xid for _, _, ack in acks] == [overlapping.xid]
        assert net.switch(
            "s3"
        ).control_table.get(50, Match.wildcard()) is not None

    def test_queue_respects_pairwise_overlaps(self):
        sim, net, system, acks = setup()
        system.send_to_switch("s3", add_mod(net, 0x0A000001, priority=100))
        # Two queued mods that overlap each other: release order must
        # keep the second queued until the first confirms.
        for priority in (50, 60):
            system.send_to_switch(
                "s3",
                FlowMod(
                    command=FlowModCommand.ADD,
                    match=Match.wildcard(),
                    priority=priority,
                    actions=output(net.port_toward["s3"]["s2"]),
                ),
            )
        assert len(system.dynamics["s3"].queue) == 2
        sim.run_for(8.0)
        assert len(acks) == 3


class TestDeletion:
    def test_delete_confirmed_when_dataplane_updates(self):
        sim, net, system, acks = setup()
        mod = add_mod(net, 0x0A000001)
        system.send_to_switch("s3", mod)
        sim.run_for(2.0)
        assert len(acks) == 1
        delete = FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=mod.match,
            priority=mod.priority,
        )
        system.send_to_switch("s3", delete)
        sim.run_for(3.0)
        assert len(acks) == 2
        assert net.switch("s3").dataplane.get(mod.priority, mod.match) is None

    def test_a_confirmed_delete_is_freed_without_the_collector(
        self, monkeypatch
    ):
        """A DELETE whose rule has a drop beneath it is confirmed by a
        quiet negative round.  The rounds' callbacks form no cycle, so
        with the cyclic collector off the update is dead as soon as it
        is confirmed."""
        tracked = []
        track = DynamicMonitor._track

        def recording(self, update):
            tracked.append(weakref.ref(update))
            track(self, update)

        monkeypatch.setattr(DynamicMonitor, "_track", recording)
        sim, net, system, acks = setup()
        mods = [add_mod(net, 0x0A000001 + i) for i in range(3)]
        for mod in mods:
            system.send_to_switch("s3", mod)
        sim.run_for(2.0)
        assert len(acks) == 3
        deletes = [
            FlowMod(
                command=FlowModCommand.DELETE_STRICT,
                match=mod.match,
                priority=mod.priority,
            )
            for mod in mods
        ]
        gc.collect()
        gc.disable()
        try:
            for delete in deletes:
                system.send_to_switch("s3", delete)
            sim.run_for(3.0)
            assert len(acks) == 6
            assert system.dynamics["s3"].updates_confirmed == 6
            assert [ref() for ref in tracked] == [None] * 6
        finally:
            gc.enable()

    def test_lost_delete_is_given_up_not_acknowledged(self):
        """The switch never hears of the DELETE, so the rule stays in
        its data plane: every negative round sees the old state, and
        the update is given up at its deadline, not acknowledged on a
        round's silence."""
        sim, net, system, acks = setup(update_deadline=0.5)
        mod = add_mod(net, 0x0A000001)
        system.send_to_switch("s3", mod)
        sim.run_for(2.0)
        assert len(acks) == 1
        delete = FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=mod.match,
            priority=mod.priority,
        )
        channel = net.channel("s3")
        original = channel.down_handler
        channel.down_handler = lambda msg: (
            None
            if isinstance(msg, FlowMod) and msg.xid == delete.xid
            else original(msg)
        )
        system.send_to_switch("s3", delete)
        sim.run_for(3.0)
        assert len(acks) == 1
        assert system.dynamics["s3"].updates_given_up == 1
        assert net.switch("s3").dataplane.get(mod.priority, mod.match)

    def test_delete_of_unknown_rule_acked_immediately(self):
        sim, net, system, acks = setup()
        delete = FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=Match.build(nw_dst=0x0BADBEEF),
            priority=77,
        )
        system.send_to_switch("s3", delete)
        sim.run_for(1.0)
        assert len(acks) == 1


class TestModification:
    def test_modify_confirmed_on_new_actions(self):
        sim, net, system, acks = setup()
        mod = add_mod(net, 0x0A000001, to="s1")
        system.send_to_switch("s3", mod)
        sim.run_for(2.0)
        modify = FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=mod.match,
            priority=mod.priority,
            actions=output(net.port_toward["s3"]["s2"]),
        )
        system.send_to_switch("s3", modify)
        sim.run_for(3.0)
        assert len(acks) == 2
        dataplane_rule = net.switch(
            "s3"
        ).dataplane.get(mod.priority, mod.match)
        assert dataplane_rule.forwarding_set() == {
            net.port_toward["s3"]["s2"]
        }


class TestEqualPriorityOverlap:
    """An update next to an overlapping rule of the same priority is
    confirmed by a probe that avoids the tied rule (which of the two a
    switch applies is undefined); regression: the tied rule was in
    neither priority class and ``probe_for`` raised out of the FlowMod
    path."""

    def test_add_then_modify_of_a_tied_rule_confirm(self):
        sim, net, system, acks = setup()
        ports = net.port_toward["s3"]
        # 0/8 is where an unconstrained nw_dst lands.
        first = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(dl_type=0x800, nw_dst=(0x00000000, 8)),
            priority=100,
            actions=output(ports["s1"]),
        )
        tied = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(dl_type=0x800, nw_src=(0x0B000000, 8)),
            priority=100,
            actions=output(ports["s2"]),
        )
        rewired = FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=tied.match,
            priority=tied.priority,
            actions=output(ports["s1"], nw_tos=4),
        )
        for mod in (first, tied, rewired):
            system.send_to_switch("s3", mod)
            sim.run_for(3.0)
        dynamic = system.dynamics["s3"]
        monitor = system.monitor("s3")
        assert [ack.flowmod_xid for _, _, ack in acks] == [
            first.xid, tied.xid, rewired.xid
        ]
        assert dynamic.updates_confirmed == 3
        assert dynamic.updates_given_up == 0
        assert monitor.rules_unmonitorable == 0 and monitor.alarms == []


class TestDropPostponing:
    def test_drop_rule_positively_confirmed_and_finalized(self):
        sim = Simulator()
        def profiles(n):
            return HP_5406ZL if n == "s3" else OVS

        net = Network(sim, triangle(), profiles=profiles, seed=11)
        acks = []
        system = MonocleSystem(
            net,
            dynamic=True,
            use_drop_postponing=True,
            controller_handler=lambda node, msg: acks.append(msg)
            if isinstance(msg, UpdateAck)
            else None,
        )
        # Deployment pre-installed the neighbor-side tag-drop rule on
        # every switch, in both planes and the Monitor's expected table.
        tagged = Match.build(nw_tos=DROP_TAG_TOS)
        for node in ("s1", "s2", "s3"):
            assert net.switch(node).dataplane.get(TAG_DROP_PRIORITY, tagged)
            assert system.monitor(node).expected.get(
                TAG_DROP_PRIORITY, tagged
            )

        mod = FlowMod(
            command=FlowModCommand.ADD,
            match=Match.build(nw_dst=0x0A000009),
            priority=100,
            actions=drop(),
        )
        system.send_to_switch("s3", mod)
        sim.run_for(5.0)
        assert len(acks) == 1
        # After finalization the dataplane rule must be a real drop.
        final = net.switch("s3").dataplane.get(100, mod.match)
        assert final is not None
        assert final.forwarding_set() == frozenset()
