"""Tests for the simulated switch: control/data plane split, FlowMod
semantics, barriers under each profile's flags, rate limits, faults."""

from dataclasses import replace

import pytest
from frame_helpers import craft

from repro.openflow.actions import output
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FlowMod,
    FlowModCommand,
    PacketIn,
    PacketOut,
)
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, pack_header
from repro.packets.craft import craft_packet
from repro.packets.parse import parse_packet
from repro.sim.kernel import Simulator
from repro.switches.profiles import HP_5406ZL, IDEAL, OVS, PICA8
from repro.switches.switch import SimulatedSwitch, apply_flowmod


def make_switch(profile=OVS, **kwargs):
    sim = Simulator()
    switch = SimulatedSwitch(sim, switch_id=1, profile=profile, **kwargs)
    received = []
    switch.send_to_controller = received.append
    return sim, switch, received


def to_dst(nw_dst):
    """A packed header bound for ``nw_dst``: what a lookup takes."""
    return pack_header({FieldName.NW_DST: nw_dst})


def add_mod(dst, port, priority=10):
    return FlowMod(
        command=FlowModCommand.ADD,
        match=Match.build(nw_dst=dst),
        priority=priority,
        actions=output(port),
    )


class TestApplyFlowmod:
    def table(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.build(nw_dst=1), actions=output(1))
        )
        return table

    def test_add(self):
        table = self.table()
        apply_flowmod(table, add_mod(2, 3))
        assert len(table) == 2

    def test_modify_strict_replaces_actions(self):
        table = self.table()
        mod = FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=Match.build(nw_dst=1),
            priority=5,
            actions=output(9),
        )
        apply_flowmod(table, mod)
        assert table.lookup(to_dst(1)).forwarding_set() == {9}
        assert len(table) == 1

    def test_modify_nonstrict_covers(self):
        table = FlowTable()
        table.install(
            Rule(
                priority=5,
                match=Match.build(nw_dst=(0x0A000000, 24)),
                actions=output(1),
            )
        )
        table.install(
            Rule(
                priority=6,
                match=Match.build(nw_dst=(0x0B000000, 24)),
                actions=output(1),
            )
        )
        mod = FlowMod(
            command=FlowModCommand.MODIFY,
            match=Match.build(nw_dst=(0x0A000000, 8)),
            priority=1,
            actions=output(7),
        )
        apply_flowmod(table, mod)
        assert table.lookup(to_dst(0x0A000001)).forwarding_set() == {7}
        assert table.lookup(to_dst(0x0B000001)).forwarding_set() == {1}

    def test_modify_without_target_adds(self):
        table = FlowTable()
        mod = FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=Match.build(nw_dst=5),
            priority=4,
            actions=output(2),
        )
        apply_flowmod(table, mod)
        assert len(table) == 1

    def test_delete_strict(self):
        table = self.table()
        mod = FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=Match.build(nw_dst=1),
            priority=5,
        )
        removed = apply_flowmod(table, mod)
        assert len(removed) == 1
        assert len(table) == 0

    def test_delete_nonstrict(self):
        table = self.table()
        mod = FlowMod(command=FlowModCommand.DELETE, match=Match.wildcard())
        apply_flowmod(table, mod)
        assert len(table) == 0


class TestControlPlane:
    def test_flowmod_reaches_both_planes(self):
        sim, switch, _ = make_switch()
        switch.receive_message(add_mod(1, 2))
        sim.run_for(1.0)
        assert len(switch.control_table) == 1
        assert len(switch.dataplane) == 1

    def test_dataplane_lags_control_plane(self):
        sim, switch, _ = make_switch(profile=HP_5406ZL)
        switch.receive_message(add_mod(1, 2))
        sim.run_for(HP_5406ZL.flowmod_cost + 0.001)
        assert len(switch.control_table) == 1
        assert len(switch.dataplane) == 0  # install latency not elapsed
        sim.run_for(1.0)
        assert len(switch.dataplane) == 1

    def test_serial_processing_rate(self):
        sim, switch, _ = make_switch(profile=HP_5406ZL)
        for i in range(20):
            switch.receive_message(add_mod(i, 1))
        sim.run_for(10 * HP_5406ZL.flowmod_cost + 1e-9)
        assert switch.stats.flowmods_processed == 10

    def test_echo_reply(self):
        sim, switch, received = make_switch()
        switch.receive_message(EchoRequest(xid=77))
        sim.run_for(0.1)
        assert any(isinstance(m, EchoReply) and m.xid == 77 for m in received)

    def test_packetout_emits_on_port(self):
        sim, switch, _ = make_switch()
        emitted = []
        switch.attach_port(3, emitted.append)
        raw = craft(
            {FieldName.DL_TYPE: 0x0800, FieldName.NW_PROTO: 17}, b"raw-bytes"
        )
        switch.receive_message(PacketOut(payload=raw, out_port=3))
        sim.run_for(0.1)
        # The switch parses a PacketOut's bytes once, on the way in.
        assert emitted == [parse_packet(raw)]

    def test_unparseable_packetout_is_counted_not_emitted(self):
        sim, switch, _ = make_switch()
        emitted = []
        switch.attach_port(3, emitted.append)
        switch.receive_message(PacketOut(payload=b"raw-bytes", out_port=3))
        sim.run_for(0.1)
        assert emitted == []
        assert switch.stats.parse_errors == 1


class TestBarrierBehaviors:
    def rules_at_barrier_reply(self, profile):
        """Data-plane rules when the reply to a barrier sent right after
        one FlowMod arrives."""
        sim, switch, _ = make_switch(profile=profile)
        at_reply = []
        switch.send_to_controller = lambda m: (
            at_reply.append(len(switch.dataplane))
            if isinstance(m, BarrierReply) and m.xid == 5
            else None
        )
        switch.receive_message(add_mod(1, 2))
        switch.receive_message(BarrierRequest(xid=5))
        sim.run_for(5.0)
        assert len(at_reply) == 1
        return at_reply[0]

    def test_faithful_barrier_implies_dataplane(self):
        assert self.rules_at_barrier_reply(IDEAL) == 1

    def test_premature_barrier_races_dataplane(self):
        assert self.rules_at_barrier_reply(HP_5406ZL) == 0  # lied

    def test_barrier_reply_follows_the_profile_flags(self):
        # Reordering implies premature barriers, whatever premature_ack
        # says; only a switch with neither flag waits for its data plane.
        for profile in (IDEAL, HP_5406ZL, PICA8):
            waits = not (profile.premature_ack or profile.reorders)
            assert self.rules_at_barrier_reply(profile) == int(waits)
        assert self.rules_at_barrier_reply(
            replace(PICA8, premature_ack=False)
        ) == 0


class TestDataPlane:
    def craft(self, dst, vlan=0xFFF):
        return craft(
            {
                FieldName.DL_TYPE: 0x0800,
                FieldName.NW_PROTO: 17,
                FieldName.NW_DST: dst,
                FieldName.DL_VLAN: vlan,
            },
            b"payload",
        )

    def test_forwarding(self):
        sim, switch, _ = make_switch()
        emitted = []
        switch.attach_port(2, emitted.append)
        switch.install_directly(
            Rule(priority=5, match=Match.build(nw_dst=7), actions=output(2))
        )
        switch.inject_raw(self.craft(7), in_port=1)
        sim.run_for(0.1)
        assert len(emitted) == 1
        assert switch.stats.packets_forwarded == 1

    def test_miss_drops(self):
        sim, switch, _ = make_switch()
        switch.inject_raw(self.craft(7), in_port=1)
        sim.run_for(0.1)
        assert switch.stats.packets_dropped == 1

    def test_rewrite_applied_on_wire(self):
        sim, switch, _ = make_switch()
        emitted = []
        switch.attach_port(2, emitted.append)
        switch.install_directly(
            Rule(
                priority=5,
                match=Match.build(nw_dst=7),
                actions=output(2, nw_tos=0x19),
            )
        )
        switch.inject_raw(self.craft(7), in_port=1)
        sim.run_for(0.1)
        ((header, payload),) = emitted
        assert HEADER.unpack(header)[FieldName.NW_TOS] == 0x19
        assert payload == b"payload"
        # The frame on the port is what the bytes would parse back to.
        assert parse_packet(craft_packet(header, payload)) == emitted[0]

    def test_controller_bound_rule_sends_packetin(self):
        from repro.openflow.actions import CONTROLLER_PORT

        sim, switch, received = make_switch()
        switch.install_directly(
            Rule(
                priority=5,
                match=Match.build(nw_dst=7),
                actions=output(CONTROLLER_PORT),
            )
        )
        switch.inject_raw(self.craft(7), in_port=4)
        sim.run_for(0.1)
        packet_ins = [m for m in received if isinstance(m, PacketIn)]
        assert len(packet_ins) == 1
        assert packet_ins[0].in_port == 4

    def test_packetin_rate_limit(self):
        from repro.openflow.actions import CONTROLLER_PORT
        from repro.switches.profiles import SwitchProfile

        slow = SwitchProfile(
            name="slow",
            flowmod_rate=100,
            packetout_rate=100,
            packetin_rate=10,
            packetin_interference=0.0,
            install_latency=0.0,
            install_jitter=0.0,
            premature_ack=False,
            reorders=False,
        )
        sim, switch, received = make_switch(profile=slow)
        switch.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(CONTROLLER_PORT),
            )
        )
        for _ in range(50):
            switch.inject_raw(self.craft(7), in_port=1)
        sim.run_for(0.5)
        assert switch.stats.packetins_sent <= 11
        assert switch.stats.packetins_dropped >= 39

    def test_parse_errors_counted(self):
        sim, switch, _ = make_switch()
        switch.inject_raw(b"\x01\x02", in_port=1)
        assert switch.stats.parse_errors == 1


class TestFaults:
    def test_fail_rule_in_dataplane_only(self):
        sim, switch, _ = make_switch()
        rule = Rule(priority=5, match=Match.build(nw_dst=7), actions=output(2))
        switch.install_directly(rule)
        assert switch.fail_rule_in_dataplane(rule)
        assert len(switch.control_table) == 1
        assert len(switch.dataplane) == 0

    def test_corrupt_rule(self):
        sim, switch, _ = make_switch()
        rule = Rule(priority=5, match=Match.build(nw_dst=7), actions=output(2))
        switch.install_directly(rule)
        switch.corrupt_rule_in_dataplane(rule, output(9))
        assert switch.dataplane.lookup(to_dst(7)).forwarding_set() == {9}
        assert switch.control_table.lookup(to_dst(7)).forwarding_set() == {2}

    def test_corrupt_missing_rule_raises(self):
        sim, switch, _ = make_switch()
        rule = Rule(priority=5, match=Match.build(nw_dst=7), actions=output(2))
        with pytest.raises(KeyError):
            switch.corrupt_rule_in_dataplane(rule, output(9))


class TestReordering:
    def test_pica8_can_apply_out_of_order(self):
        # With many installs, the reordering behaviour must produce at
        # least one inversion between issue order and dataplane order.
        sim = Simulator()
        switch = SimulatedSwitch(sim, switch_id=1, profile=PICA8)
        apply_times = {}
        original = switch._apply_to_dataplane

        def spy(mod):
            apply_times[mod.xid] = sim.now
            original(mod)

        switch._apply_to_dataplane = spy
        mods = [add_mod(i, 1) for i in range(30)]
        for mod in mods:
            switch.receive_message(mod)
        sim.run_for(10.0)
        order = [m.xid for m in mods]
        applied = sorted(order, key=lambda x: apply_times[x])
        assert applied != order  # at least one inversion
