"""The frame two simulated switches exchange is the wire, minus bytes.

Between switches a packet travels as ``(wire_header(values), payload)``
and is never serialized; these tests hold that to the one byte codec
(``craft_packet`` / ``parse_packet``): the carried header is exactly
what a craft -> parse round trip returns, real bytes still come out of
every real boundary, a header the wire cannot carry is not forwarded
at all, and a hop keeps a frame in that form while re-normalising only
what a rewrite touched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Network
from repro.network.host import Host
from repro.openflow.actions import (
    CONTROLLER_PORT,
    ActionList,
    EcmpGroup,
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
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import pack_header
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


# ----- (c) a hop keeps the wire form, re-normalising only rewrites --------

#: Rewrites the wire keeps, narrows (ICMP ``tp_*``, the priority of an
#: untagged frame) or cannot carry at all (``dl_type`` 0x1234, an IPv4
#: ``nw_proto`` 99, ``dl_type`` IPv4 on an ARP packet: no ``nw_proto``).
rewrites = st.one_of(
    st.builds(SetField, st.just(FieldName.NW_TOS), _field(FieldName.NW_TOS)),
    st.builds(SetField, st.just(FieldName.TP_DST), _field(FieldName.TP_DST)),
    st.builds(
        SetField,
        st.just(FieldName.DL_VLAN),
        st.sampled_from((VLAN_NONE, 0x123)),
    ),
    st.builds(
        SetField,
        st.just(FieldName.DL_VLAN_PCP),
        _field(FieldName.DL_VLAN_PCP),
    ),
    st.builds(
        SetField,
        st.just(FieldName.DL_TYPE),
        st.sampled_from((ETHERTYPE_IPV4, ETHERTYPE_ARP, 0x1234)),
    ),
    st.builds(
        SetField,
        st.just(FieldName.NW_PROTO),
        st.sampled_from((*VALID_IP_PROTOS, 99)),
    ),
)


@st.composite
def hop_actions(draw, ports):
    """A unicast, multicast or ECMP action list over ``ports``, each
    output drawing its own rewrites (none, often); or no rule at all."""
    kind = draw(st.sampled_from(("unicast", "multicast", "ecmp", "miss")))
    if kind == "miss":
        return None
    chosen = draw(
        st.lists(
            st.sampled_from(ports),
            min_size=1 if kind == "unicast" else 2,
            max_size=1 if kind == "unicast" else len(ports),
            unique=True,
        )
    )
    none_or_some = st.lists(rewrites, max_size=2) | st.just([])
    if kind == "ecmp":
        per_port = [(port, tuple(draw(none_or_some))) for port in chosen]
        group = EcmpGroup(
            tuple(chosen), tuple((p, sets) for p, sets in per_port if sets)
        )
        return ActionList([*draw(none_or_some), group])
    actions: list = []
    for port in chosen:
        actions += [*draw(none_or_some), Forward(port)]
    return ActionList(actions)


class _Recorder:
    """What one switch took in and sent out, header dicts as they were
    at that moment, beside the dict objects themselves."""

    def __init__(self, switch):
        self.ingress = []  # (dict, a copy as it arrived, in_port)
        self.egress = []  # (port, dict, a copy as it left)
        self.ecmp_choices = []
        inject, choose = switch.inject, switch._choose_ecmp_port
        emit_packetin = switch._emit_packetin

        def recording_inject(frame, in_port):
            self.ingress.append((frame[0], dict(frame[0]), in_port))
            inject(frame, in_port)

        def recording_choose(rule):
            self.ecmp_choices.append(choose(rule))
            return self.ecmp_choices[-1]

        def recording_packetin(frame, in_port):
            self.egress.append((CONTROLLER_PORT, frame[0], dict(frame[0])))
            emit_packetin(frame, in_port)

        switch.inject = recording_inject
        switch._choose_ecmp_port = recording_choose
        switch._emit_packetin = recording_packetin

    def port_handler(self, port, then=None):
        def handler(frame):
            self.egress.append((port, frame[0], dict(frame[0])))
            if then is not None:
                then(frame)

        return handler


def _expected_hop(switch, values, in_port, choices):
    """What the switch emitted before frames kept their wire form: every
    ``RuleOutcome.from_rule`` emission (ECMP cut to the port the switch
    chose) through ``wire_header``; how many of them it dropped; and
    whether the hop is one emission no rewrite touched."""
    values = {**values, FieldName.IN_PORT: in_port}
    rule = switch.dataplane.lookup(values)
    if rule is None:
        return [], 1, False
    pairs = list(
        zip(
            rule.actions.port_outcomes,
            RuleOutcome.from_rule(rule, pack_header(values)).emissions,
        )
    )
    if rule.actions.is_ecmp:
        chosen = choices.pop(0)
        pairs = [(po, e) for po, e in pairs if po.port == chosen]
    if not pairs:
        return [], 1, False
    sent, dropped = [], 0
    for _, (port, header) in pairs:
        try:
            sent.append((port, wire_header(HEADER.unpack(header))))
        except CraftError:
            dropped += 1
    return sent, dropped, len(pairs) == 1 and not pairs[0][0].rewrites


SW0_OUT = (2, 3, 4, CONTROLLER_PORT)  # 2, 3, 4 lead to sw1's 1, 2, 3
SW1_OUT = (4, 5, 6, CONTROLLER_PORT)  # to sinks


class TestEveryHopKeepsTheWireForm:
    @settings(max_examples=300, deadline=None)
    @given(
        packets=st.lists(
            st.tuples(craftable_headers, st.binary(max_size=16)),
            min_size=1,
            max_size=3,
        ),
        first=hop_actions(SW0_OUT),
        second=hop_actions(SW1_OUT),
    )
    def test_a_two_switch_chain_emits_what_wire_header_did(
        self, packets, first, second
    ):
        sim = Simulator()
        sw0 = SimulatedSwitch(sim, switch_id=1)
        sw1 = SimulatedSwitch(sim, switch_id=2)
        for switch, actions in ((sw0, first), (sw1, second)):
            if actions is not None:
                switch.install_directly(
                    Rule(priority=5, match=Match.wildcard(), actions=actions)
                )
        seen0, seen1 = _Recorder(sw0), _Recorder(sw1)
        for port, peer_port in ((2, 1), (3, 2), (4, 3)):
            sw0.attach_port(
                port,
                seen0.port_handler(
                    port, lambda f, p=peer_port: sw1.inject(f, p)
                ),
            )
        for port in SW1_OUT[:-1]:
            sw1.attach_port(port, seen1.port_handler(port))
        for values, payload in packets:
            sw0.inject_raw(craft_packet(values, payload), in_port=1)
        sim.run()

        for switch, seen in ((sw0, seen0), (sw1, seen1)):
            egress = iter(seen.egress)
            choices = list(seen.ecmp_choices)
            drops = forwarded = 0
            for received, arrived, in_port in seen.ingress:
                sent, dropped, handed_on = _expected_hop(
                    switch, arrived, in_port, choices
                )
                out = [next(egress) for _ in sent]
                assert [(port, items) for port, _, items in out] == sent
                assert all(h[FieldName.IN_PORT] == 0 for _, h in sent)
                # A frame belongs to its last receiver: an untouched
                # unicast hop hands on the very dict it received, and
                # every other emission is a dict of its own.
                headers = [header for _, header, _ in out]
                if handed_on:
                    assert headers[0] is received
                else:
                    assert all(h is not received for h in headers)
                    assert len({id(h) for h in headers}) == len(headers)
                drops += dropped
                forwarded += sum(p != CONTROLLER_PORT for p, _ in sent)
            assert next(egress, None) is None
            assert switch.stats.packets_dropped == drops
            assert switch.stats.packets_forwarded == forwarded
