"""The frame two simulated switches exchange is the wire, minus bytes.

Between switches a packet travels as ``(wire_header(header), payload)``,
its header packed as one int, and is never serialized; these tests
hold that to the one byte codec (``craft_packet`` / ``parse_packet``)
and to the per-field oracle (``packet_reference.wire_header``, on
dicts): the carried header is exactly what a craft -> parse round trip
returns, real bytes still come out of every real boundary, a header
the wire cannot carry is not forwarded at all, and a hop keeps a frame
in that form while re-normalising only what a rewrite touched.
"""

import packet_reference as reference
import pytest
from frame_helpers import craft, packed
from hypothesis_budget import examples
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
    VALID_ETHERTYPES,
    VALID_IP_PROTOS,
    VLAN_NONE,
    FieldName,
)
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import pack_header
from repro.packets.craft import (
    IN_PORT_SHIFT,
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

#: Every ``(dl_type, nw_proto)`` class: each valid value and one
#: invalid value of each (no wire form but ARP's, whose ``nw_proto`` is
#: not on the wire).
CLASSES = [
    (dl_type, nw_proto)
    for dl_type in (*VALID_ETHERTYPES, 0x1234)
    for nw_proto in (*VALID_IP_PROTOS, 99)
]


@st.composite
def class_headers(draw):
    """A packed header in a drawn class, tagged or untagged, every
    other field anywhere within its width."""
    values = draw(st.fixed_dictionaries(_ANY))
    dl_type, nw_proto = draw(st.sampled_from(CLASSES))
    values[FieldName.DL_TYPE] = dl_type
    values[FieldName.NW_PROTO] = nw_proto
    values[FieldName.DL_VLAN] = draw(
        st.sampled_from((VLAN_NONE, 0)) | _field(FieldName.DL_VLAN)
    )
    return pack_header(values)


class TestCarriedHeaderIsTheRoundTrip:
    @settings(max_examples=examples(600), deadline=None)
    @given(
        header=class_headers(),
        payload=st.binary(max_size=48),
        in_port=_field(FieldName.IN_PORT),
    )
    def test_every_class_round_trips_to_its_wire_header(
        self, header, payload, in_port
    ):
        """In every class, tagged and untagged: the packed
        ``wire_header`` is the dict oracle's, packed (``CraftError`` for
        ``CraftError``), and a header in that form crafts and parses
        back as itself, ``in_port`` ORed in."""
        try:
            expected = reference.wire_header(HEADER.unpack(header))
        except CraftError:
            with pytest.raises(CraftError):
                wire_header(header)
            with pytest.raises(CraftError):
                craft_packet(header, payload)
            return
        wired = wire_header(header)
        assert wired == pack_header(expected)
        assert parse_packet(craft_packet(wired, payload), in_port) == (
            wired | in_port << IN_PORT_SHIFT,
            payload,
        )
        # Crafting reads only what the wire carries.
        assert craft_packet(header, payload) == craft_packet(wired, payload)

    @settings(max_examples=examples(300), deadline=None)
    @given(
        values=craftable_headers,
        payload=st.binary(max_size=48),
        in_port=st.integers(0, 0xFFFF),
    )
    def test_wire_header_equals_craft_then_parse(
        self, values, payload, in_port
    ):
        header = packed(values)
        assert parse_packet(craft_packet(header, payload), in_port) == (
            wire_header(header) | in_port << IN_PORT_SHIFT,
            payload,
        )

    @settings(max_examples=examples(200), deadline=None)
    @given(
        values=craftable_headers,
        missing=st.sets(st.sampled_from(sorted(HEADER.names()))),
    )
    def test_a_missing_field_reads_as_craft_packet_reads_it(
        self, values, missing
    ):
        """The dict oracle and the dict edge (``frame_helpers.packed``)
        read a missing field alike: 0, and an untagged VLAN."""
        partial = {k: v for k, v in values.items() if k not in missing}
        try:
            raw = reference.craft_packet(partial)
        except CraftError:  # no dl_type, or IPv4 and no nw_proto
            with pytest.raises(CraftError):
                reference.wire_header(partial)
            with pytest.raises(CraftError):
                wire_header(packed(partial))
        else:
            expected = pack_header(reference.wire_header(partial, 3))
            assert parse_packet(raw, 3)[0] == expected
            carried = wire_header(packed(partial)) | 3 << IN_PORT_SHIFT
            assert carried == expected

    @settings(max_examples=examples(200), deadline=None)
    @given(values=craftable_headers)
    def test_observation_projection_agrees_with_the_round_trip(self, values):
        parsed = HEADER.unpack(parse_packet(craft(values), in_port=77)[0])
        assert wire_visible_items(values) == wire_visible_items(parsed)
        # What the wire carries, as it carries it; every other field 0.
        expected = {name: 0 for name in HEADER.names()}
        expected.update(wire_visible_items(values))
        expected[FieldName.IN_PORT] = 77  # parse's argument, not the wire's
        assert parsed == expected

    @settings(max_examples=examples(100), deadline=None)
    @given(
        values=craftable_headers,
        # The valid ethertypes as often as any other: an IPv4 header with
        # an invalid nw_proto has no wire form either.
        dl_type=st.sampled_from(VALID_ETHERTYPES) | st.integers(0, 0xFFFF),
        nw_proto=st.integers(0, 0xFF),
    )
    def test_no_wire_form_is_the_same_error(self, values, dl_type, nw_proto):
        header = packed(
            {
                **values,
                FieldName.DL_TYPE: dl_type,
                FieldName.NW_PROTO: nw_proto,
            }
        )
        try:
            craft_packet(header)
        except CraftError:
            with pytest.raises(CraftError):
                wire_header(header)
        else:
            wire_header(header)

    def test_each_narrowing_by_example(self):
        base = {name: 0 for name in HEADER.names()}
        icmp = {
            **base,
            FieldName.IN_PORT: 9,
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.NW_PROTO: 1,
            FieldName.DL_VLAN: VLAN_NONE,
            FieldName.DL_VLAN_PCP: 5,
            FieldName.TP_SRC: 0x1234,
            FieldName.TP_DST: 0xFF00,
            FieldName.NW_SRC: 0x0A000001,
        }
        carried = HEADER.unpack(wire_header(packed(icmp)))
        assert carried[FieldName.TP_SRC] == 0x34
        assert carried[FieldName.TP_DST] == 0x00
        assert carried[FieldName.DL_VLAN_PCP] == 0
        assert carried[FieldName.IN_PORT] == 0
        arp = {**icmp, FieldName.DL_TYPE: ETHERTYPE_ARP, FieldName.DL_VLAN: 7}
        carried = HEADER.unpack(wire_header(packed(arp)))
        assert carried[FieldName.DL_VLAN_PCP] == 5
        assert carried[FieldName.NW_SRC] == arp[FieldName.NW_SRC]
        for gone in (
            FieldName.NW_PROTO,
            FieldName.NW_TOS,
            FieldName.TP_SRC,
            FieldName.TP_DST,
        ):
            assert carried[gone] == 0
        assert set(reference.wire_header(arp)).isdisjoint(
            (FieldName.NW_PROTO, FieldName.TP_SRC)
        )


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
        h1.send_raw(craft(_sent(DST_TO_HOST), b"ping"))
        sim.run_for(0.1)
        expected = {
            **_sent(DST_TO_HOST),
            FieldName.NW_TOS: 0x19,
            FieldName.DL_VLAN: 0x123,
        }
        assert host_bytes == [("h2", craft(expected, b"ping"))]
        assert packet_ins == []

    def test_host_to_packet_in_bytes_are_the_codecs(self, two_switches):
        sim, net, h1, host_bytes, packet_ins = two_switches
        h1.send_raw(craft(_sent(DST_TO_CONTROLLER), b"caught"))
        sim.run_for(0.1)
        expected = {**_sent(DST_TO_CONTROLLER), FieldName.NW_TOS: 0x19}
        (msg,) = packet_ins
        assert isinstance(msg, PacketIn)
        assert msg.payload == craft(expected, b"caught")
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
        frame = craft(_sent(DST_TO_CONTROLLER), meta)
        h1.send_raw(frame[:-10])
        sim.run_for(0.1)
        assert net.switch("sw0").stats.parse_errors == 1
        assert host_bytes == [] and packet_ins == []
        h1.receive(frame[:-10])
        assert h1.received[-1].values == {}
        assert h1.received[-1].payload == frame[:-10]


# ----- a rewrite with no wire form ----------------------------------------

UDP = craft(
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
        ((header, payload),) = emitted
        assert HEADER.unpack(header)[FieldName.DL_TYPE] == ETHERTYPE_IPV4
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
    """What one switch took in and sent out: packed headers, the
    ingress ones with the port they arrived on."""

    def __init__(self, switch):
        self.ingress = []  # (header, in_port)
        self.egress = []  # (port, header)
        self.ecmp_choices = []
        inject, choose = switch.inject, switch._choose_ecmp_port
        emit_packetin = switch._emit_packetin

        def recording_inject(frame, in_port):
            self.ingress.append((frame[0], in_port))
            inject(frame, in_port)

        def recording_choose(rule):
            self.ecmp_choices.append(choose(rule))
            return self.ecmp_choices[-1]

        def recording_packetin(frame, in_port):
            self.egress.append((CONTROLLER_PORT, frame[0]))
            emit_packetin(frame, in_port)

        switch.inject = recording_inject
        switch._choose_ecmp_port = recording_choose
        switch._emit_packetin = recording_packetin

    def port_handler(self, port, then=None):
        def handler(frame):
            self.egress.append((port, frame[0]))
            if then is not None:
                then(frame)

        return handler


def _expected_hop(switch, header, in_port, choices):
    """What the switch emitted before frames kept their wire form: every
    ``RuleOutcome.from_rule`` emission (ECMP cut to the port the switch
    chose) through the dict oracle's ``wire_header``, packed; and how
    many of them it dropped."""
    header |= in_port << IN_PORT_SHIFT
    rule = switch.dataplane.lookup(header)
    if rule is None:
        return [], 1
    pairs = list(
        zip(
            rule.actions.port_outcomes,
            RuleOutcome.from_rule(rule, header).emissions,
        )
    )
    if rule.actions.is_ecmp:
        chosen = choices.pop(0)
        pairs = [(po, e) for po, e in pairs if po.port == chosen]
    if not pairs:
        return [], 1
    sent, dropped = [], 0
    for _, (port, emitted) in pairs:
        try:
            wired = reference.wire_header(HEADER.unpack(emitted))
        except CraftError:
            dropped += 1
        else:
            sent.append((port, pack_header(wired)))
    return sent, dropped


SW0_OUT = (2, 3, 4, CONTROLLER_PORT)  # 2, 3, 4 lead to sw1's 1, 2, 3
SW1_OUT = (4, 5, 6, CONTROLLER_PORT)  # to sinks


class TestEveryHopKeepsTheWireForm:
    @settings(max_examples=examples(300), deadline=None)
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
            sw0.inject_raw(craft(values, payload), in_port=1)
        sim.run()

        for switch, seen in ((sw0, seen0), (sw1, seen1)):
            egress = iter(seen.egress)
            choices = list(seen.ecmp_choices)
            drops = forwarded = 0
            for header, in_port in seen.ingress:
                # A frame arrives in wire form: in_port is the link's.
                assert header >> IN_PORT_SHIFT == 0
                sent, dropped = _expected_hop(switch, header, in_port, choices)
                assert [next(egress) for _ in sent] == sent
                assert all(h >> IN_PORT_SHIFT == 0 for _, h in sent)
                drops += dropped
                forwarded += sum(p != CONTROLLER_PORT for p, _ in sent)
            assert next(egress, None) is None
            assert switch.stats.packets_dropped == drops
            assert switch.stats.packets_forwarded == forwarded
