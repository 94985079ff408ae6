"""The frame two simulated switches exchange is the wire, minus bytes.

Between switches a packet travels as ``(wire_header(values), payload)``
and is never serialized; these tests hold that to the one byte codec
(``craft_packet`` / ``parse_packet``): the carried header is exactly
what a craft -> parse round trip returns, real bytes still come out of
every real boundary, and a header the wire cannot carry is not
forwarded at all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Network
from repro.network.host import Host
from repro.openflow.actions import (
    CONTROLLER_PORT,
    ActionList,
    Forward,
    SetField,
    output,
)
from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    HEADER,
    VALID_IP_PROTOS,
    VLAN_NONE,
    FieldName,
)
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn
from repro.openflow.rule import Rule
from repro.packets.craft import (
    CraftError,
    craft_packet,
    wire_header,
    wire_visible_items,
)
from repro.packets.parse import parse_packet
from repro.packets.payload import ProbeMetadata
from repro.sim.kernel import Simulator
from repro.switches.switch import SimulatedSwitch
from repro.topology.generators import linear

# ----- (a) the carried header is the round trip --------------------------


def _field(name: FieldName) -> st.SearchStrategy[int]:
    return st.integers(0, HEADER.field(name).max_value)


#: Every field within its width — including what the wire then narrows
#: or drops: ICMP tp_* above one byte, a priority on an untagged frame,
#: IP and transport fields on an ARP packet.
_ANY = {
    name: _field(name)
    for name in HEADER.names()
    if name not in (FieldName.DL_TYPE, FieldName.NW_PROTO, FieldName.DL_VLAN)
}
craftable_headers = st.fixed_dictionaries(
    {
        **_ANY,
        FieldName.DL_TYPE: st.sampled_from((ETHERTYPE_IPV4, ETHERTYPE_ARP)),
        FieldName.NW_PROTO: st.sampled_from(VALID_IP_PROTOS),
        FieldName.DL_VLAN: st.one_of(
            st.just(VLAN_NONE), _field(FieldName.DL_VLAN)
        ),
        FieldName.NW_TOS: st.one_of(
            st.just(0x3F), _field(FieldName.NW_TOS)
        ),
    }
)


class TestCarriedHeaderIsTheRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        values=craftable_headers,
        payload=st.binary(max_size=48),
        in_port=st.integers(0, 0xFFFF),
    )
    def test_wire_header_equals_craft_then_parse(
        self, values, payload, in_port
    ):
        assert parse_packet(craft_packet(values, payload), in_port) == (
            wire_header(values, in_port),
            payload,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        values=craftable_headers,
        missing=st.sets(st.sampled_from(sorted(HEADER.names()))),
    )
    def test_a_missing_field_reads_as_craft_packet_reads_it(
        self, values, missing
    ):
        partial = {k: v for k, v in values.items() if k not in missing}
        try:
            raw = craft_packet(partial)
        except CraftError:  # no dl_type, or IPv4 and no nw_proto
            with pytest.raises(CraftError):
                wire_header(partial)
        else:
            assert parse_packet(raw, 3)[0] == wire_header(partial, 3)

    @settings(max_examples=200, deadline=None)
    @given(values=craftable_headers)
    def test_observation_projection_agrees_with_the_round_trip(self, values):
        parsed, _ = parse_packet(craft_packet(values), in_port=77)
        assert wire_visible_items(values) == wire_visible_items(parsed)
        del parsed[FieldName.IN_PORT]  # parse's argument, not the wire's
        assert wire_visible_items(values) == tuple(sorted(parsed.items()))

    @settings(max_examples=100, deadline=None)
    @given(
        values=craftable_headers,
        dl_type=st.integers(0, 0xFFFF),
        nw_proto=st.integers(0, 0xFF),
    )
    def test_no_wire_form_is_the_same_error(self, values, dl_type, nw_proto):
        values = {
            **values,
            FieldName.DL_TYPE: dl_type,
            FieldName.NW_PROTO: nw_proto,
        }
        try:
            craft_packet(values)
        except CraftError:
            with pytest.raises(CraftError):
                wire_header(values)
        else:
            wire_header(values)

    def test_each_narrowing_by_example(self):
        base = {name: 0 for name in HEADER.names()}
        icmp = {
            **base,
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.NW_PROTO: 1,
            FieldName.DL_VLAN: VLAN_NONE,
            FieldName.DL_VLAN_PCP: 5,
            FieldName.TP_SRC: 0x1234,
            FieldName.TP_DST: 0xFF00,
        }
        carried = wire_header(icmp, in_port=9)
        assert carried[FieldName.TP_SRC] == 0x34
        assert carried[FieldName.TP_DST] == 0x00
        assert carried[FieldName.DL_VLAN_PCP] == 0
        assert carried[FieldName.IN_PORT] == 9
        arp = {**icmp, FieldName.DL_TYPE: ETHERTYPE_ARP, FieldName.DL_VLAN: 7}
        carried = wire_header(arp)
        assert carried[FieldName.DL_VLAN_PCP] == 5
        assert FieldName.NW_SRC in carried
        for gone in (
            FieldName.NW_PROTO,
            FieldName.NW_TOS,
            FieldName.TP_SRC,
            FieldName.TP_DST,
        ):
            assert gone not in carried


# ----- (b) real bytes in, real bytes out, across two switches -------------

DST_TO_HOST = 0x0A000002
DST_TO_CONTROLLER = 0x0A000003


@pytest.fixture
def two_switches(monkeypatch):
    """h1 - sw0 - sw1 - h2; sw0 rewrites nw_tos, sw1 delivers one
    destination to h2 and another to the controller."""
    host_bytes = []
    receive = Host.receive

    def spy(self, raw):
        host_bytes.append((self.name, raw))
        receive(self, raw)

    monkeypatch.setattr(Host, "receive", spy)
    sim = Simulator()
    net = Network(sim, linear(2), seed=1)
    h1 = net.add_host("h1", "sw0")
    net.add_host("h2", "sw1")
    net.switch("sw0").install_directly(
        Rule(
            priority=5,
            match=Match.wildcard(),
            actions=output(net.port_toward["sw0"]["sw1"], nw_tos=0x19),
        )
    )
    net.switch("sw1").install_directly(
        Rule(
            priority=5,
            match=Match.build(nw_dst=DST_TO_HOST),
            actions=output(net.port_toward["sw1"]["h2"], dl_vlan=0x123),
        )
    )
    net.switch("sw1").install_directly(
        Rule(
            priority=5,
            match=Match.build(nw_dst=DST_TO_CONTROLLER),
            actions=output(CONTROLLER_PORT),
        )
    )
    packet_ins = []
    net.channel("sw1").up_handler = packet_ins.append
    return sim, net, h1, host_bytes, packet_ins


def _sent(nw_dst):
    return {
        FieldName.DL_TYPE: ETHERTYPE_IPV4,
        FieldName.DL_SRC: 0x0000AA000001,
        FieldName.DL_DST: 0x0000BB000002,
        FieldName.NW_PROTO: 1,  # ICMP: tp_* keep one byte each
        FieldName.NW_SRC: 0x0A000001,
        FieldName.NW_DST: nw_dst,
        FieldName.TP_SRC: 8,
        FieldName.TP_DST: 0,
    }


class TestRealBytesAtEveryRealBoundary:
    def test_host_to_host_bytes_are_the_codecs(self, two_switches):
        sim, net, h1, host_bytes, packet_ins = two_switches
        h1.send_raw(craft_packet(_sent(DST_TO_HOST), b"ping"))
        sim.run_for(0.1)
        expected = {
            **_sent(DST_TO_HOST),
            FieldName.NW_TOS: 0x19,
            FieldName.DL_VLAN: 0x123,
        }
        assert host_bytes == [("h2", craft_packet(expected, b"ping"))]
        assert packet_ins == []

    def test_host_to_packet_in_bytes_are_the_codecs(self, two_switches):
        sim, net, h1, host_bytes, packet_ins = two_switches
        h1.send_raw(craft_packet(_sent(DST_TO_CONTROLLER), b"caught"))
        sim.run_for(0.1)
        expected = {**_sent(DST_TO_CONTROLLER), FieldName.NW_TOS: 0x19}
        (msg,) = packet_ins
        assert isinstance(msg, PacketIn)
        assert msg.payload == craft_packet(expected, b"caught")
        assert msg.in_port == net.port_toward["sw1"]["sw0"]
        assert host_bytes == []

    def test_garbage_from_a_host_is_a_parse_error_at_its_switch(
        self, two_switches
    ):
        sim, net, h1, host_bytes, packet_ins = two_switches
        h1.send_raw(b"\x01\x02\x03")
        sim.run_for(0.1)
        assert net.switch("sw0").stats.parse_errors == 1
        assert net.switch("sw1").stats.parse_errors == 0
        assert host_bytes == [] and packet_ins == []

    def test_a_truncated_probe_is_a_parse_error_not_foreign_traffic(
        self, two_switches
    ):
        """Ten bytes short of its IPv4 total length: the frame used to
        parse, with a payload ``ProbeMetadata.decode`` returned None
        for — a cut-off probe read as somebody else's packet."""
        sim, net, h1, host_bytes, packet_ins = two_switches
        meta = ProbeMetadata(switch_id=1, rule_cookie=2, nonce=3).encode()
        frame = craft_packet(_sent(DST_TO_CONTROLLER), meta)
        h1.send_raw(frame[:-10])
        sim.run_for(0.1)
        assert net.switch("sw0").stats.parse_errors == 1
        assert host_bytes == [] and packet_ins == []
        h1.receive(frame[:-10])
        assert h1.received[-1].values == {}
        assert h1.received[-1].payload == frame[:-10]


# ----- a rewrite with no wire form ----------------------------------------

UDP = craft_packet(
    {
        FieldName.DL_TYPE: ETHERTYPE_IPV4,
        FieldName.NW_PROTO: 17,
        FieldName.NW_DST: 7,
    },
    b"payload",
)


class TestRewriteWithoutWireForm:
    """``nw_proto=99`` on a UDP packet cannot be serialized.  It used to
    raise ``CraftError`` out of ``Simulator.run``: one FlowMod from a
    churn workload aborted the scenario."""

    def test_switch_drops_and_counts_the_emission(self):
        sim = Simulator()
        switch = SimulatedSwitch(sim, switch_id=1)
        emitted = []
        switch.attach_port(2, emitted.append)
        switch.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(2, nw_proto=99),
            )
        )
        switch.inject_raw(UDP, in_port=1)
        sim.run()
        assert emitted == []
        assert switch.stats.packets_dropped == 1
        assert switch.stats.packets_forwarded == 0

    def test_other_emissions_of_the_same_packet_still_leave(self):
        sim = Simulator()
        switch = SimulatedSwitch(sim, switch_id=1)
        emitted = []
        switch.attach_port(2, emitted.append)
        switch.attach_port(3, emitted.append)
        switch.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=ActionList(
                    [
                        Forward(3),
                        SetField(FieldName.DL_TYPE, 0x1234),
                        Forward(2),
                    ]
                ),
            )
        )
        switch.inject_raw(UDP, in_port=1)
        sim.run()
        ((values, payload),) = emitted
        assert values[FieldName.DL_TYPE] == ETHERTYPE_IPV4
        assert payload == b"payload"
        assert switch.stats.packets_dropped == 1
        assert switch.stats.packets_forwarded == 1

    def test_nothing_crosses_the_link_and_the_run_goes_on(self):
        sim = Simulator()
        net = Network(sim, linear(2), seed=1)
        sw0, sw1 = net.switch("sw0"), net.switch("sw1")
        sw0.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(net.port_toward["sw0"]["sw1"], nw_proto=99),
            )
        )
        sw1.install_directly(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=output(CONTROLLER_PORT),
            )
        )
        packet_ins = []
        net.channel("sw1").up_handler = packet_ins.append
        host = net.add_host("h", "sw0")
        host.send_raw(UDP)
        sim.run()
        assert sw0.stats.packets_dropped == 1
        assert net.link_between("sw0", "sw1").delivered == 0
        assert packet_ins == []
        assert sw1.stats.packets_dropped == sw1.stats.parse_errors == 0
