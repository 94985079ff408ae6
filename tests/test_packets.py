"""Tests for packet crafting and parsing: protocol round trips,
checksums, and the §5.2 normalization lemmas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    VLAN_NONE,
    FieldName,
)
from repro.openflow.match import Match
from repro.packets import arp, ethernet, ipv4, transport
from repro.packets.checksum import internet_checksum
from repro.packets.craft import (
    CraftError,
    craft_packet,
    normalize_abstract_header,
    wire_visible_items,
)
from repro.packets.parse import ParseError, parse_packet
from repro.packets.payload import ProbeMetadata


def rfc1071_reference(data: bytes) -> int:
    """RFC 1071 section 4.1, byte by byte: the oracle (and, until the
    word-wise sum replaced it, the implementation)."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class TestChecksum:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=81),
            # Long runs of 0xFF: the sum carries out of 16 bits, and out
            # of the fold itself, at odd and even lengths alike.
            st.builds(
                lambda n, tail: b"\xff" * n + tail,
                st.integers(0, 1500),
                st.binary(max_size=3),
            ),
        )
    )
    def test_matches_the_rfc1071_reference(self, data):
        assert internet_checksum(data) == rfc1071_reference(data)

    def test_rfc1071_example(self):
        # Canonical example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_verify_with_embedded_checksum(self):
        data = bytes([0x00, 0x01, 0xF2, 0x03])
        checksum = internet_checksum(data)
        full = data + checksum.to_bytes(2, "big")
        assert internet_checksum(full) == 0


class TestEthernet:
    def test_untagged_roundtrip(self):
        header = ethernet.EthernetHeader(
            dst=0x112233445566, src=0xAABBCCDDEEFF, ethertype=ETHERTYPE_IPV4
        )
        frame = ethernet.encode_ethernet(header, b"payload")
        decoded, rest = ethernet.decode_ethernet(frame)
        assert decoded == header
        assert rest == b"payload"

    def test_vlan_tag_roundtrip(self):
        header = ethernet.EthernetHeader(
            dst=1, src=2, ethertype=ETHERTYPE_IPV4, vlan=0xF03, vlan_pcp=5
        )
        frame = ethernet.encode_ethernet(header, b"x")
        decoded, rest = ethernet.decode_ethernet(frame)
        assert decoded.vlan == 0xF03
        assert decoded.vlan_pcp == 5
        assert decoded.ethertype == ETHERTYPE_IPV4

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            ethernet.decode_ethernet(b"short")

    def test_mac_to_str(self):
        raw = ethernet.mac_to_bytes(0xAABBCCDDEEFF)
        assert raw.hex(":") == "aa:bb:cc:dd:ee:ff"
        with pytest.raises(ValueError):
            ethernet.mac_to_bytes(1 << 48)


class TestIpv4:
    def test_roundtrip_and_checksum(self):
        header = ipv4.Ipv4Header(
            src=0x0A000001, dst=0x0A000002, proto=IPPROTO_TCP, tos=0x2A
        )
        packet = ipv4.encode_ipv4(header, b"data")
        decoded, rest = ipv4.decode_ipv4(packet)
        assert decoded.src == header.src
        assert decoded.dst == header.dst
        assert decoded.proto == IPPROTO_TCP
        assert decoded.tos == 0x2A
        assert rest == b"data"

    def test_corrupted_checksum_rejected(self):
        packet = bytearray(
            ipv4.encode_ipv4(
                ipv4.Ipv4Header(src=1, dst=2, proto=6), b""
            )
        )
        packet[12] ^= 0xFF
        with pytest.raises(ValueError):
            ipv4.decode_ipv4(bytes(packet))

    def test_ip_string_conversions(self):
        assert ipv4.ip_to_str(0x0A000001) == "10.0.0.1"
        assert ipv4.str_to_ip("10.0.0.1") == 0x0A000001
        with pytest.raises(ValueError):
            ipv4.str_to_ip("10.0.0")
        with pytest.raises(ValueError):
            ipv4.str_to_ip("10.0.0.999")


class TestTransport:
    def test_tcp_roundtrip(self):
        segment = transport.encode_tcp(1234, 443, b"hello", 1, 2)
        src, dst, payload = transport.decode_tcp(segment)
        assert (src, dst, payload) == (1234, 443, b"hello")

    def test_udp_roundtrip(self):
        datagram = transport.encode_udp(53, 5353, b"query", 1, 2)
        src, dst, payload = transport.decode_udp(datagram)
        assert (src, dst, payload) == (53, 5353, b"query")

    def test_icmp_roundtrip(self):
        message = transport.encode_icmp(8, 0, b"ping")
        icmp_type, icmp_code, payload = transport.decode_icmp(message)
        assert (icmp_type, icmp_code, payload) == (8, 0, b"ping")

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            transport.decode_tcp(b"abc")
        with pytest.raises(ValueError):
            transport.decode_udp(b"abc")
        with pytest.raises(ValueError):
            transport.decode_icmp(b"abc")


class TestArp:
    def test_roundtrip(self):
        packet = arp.ArpPacket(
            opcode=arp.OP_REQUEST,
            sender_mac=0xAABBCCDDEEFF,
            sender_ip=0x0A000001,
            target_mac=0,
            target_ip=0x0A000002,
        )
        decoded, rest = arp.decode_arp(arp.encode_arp(packet) + b"tail")
        assert decoded == packet
        assert rest == b"tail"


class TestCraftParseRoundtrip:
    def full_header(self, proto):
        return {
            FieldName.IN_PORT: 0,
            FieldName.DL_SRC: 0x020000000001,
            FieldName.DL_DST: 0x020000000002,
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.DL_VLAN: 0xF03,
            FieldName.DL_VLAN_PCP: 0,
            FieldName.NW_SRC: 0x0A000001,
            FieldName.NW_DST: 0x0A000002,
            FieldName.NW_PROTO: proto,
            FieldName.NW_TOS: 0x15,
            FieldName.TP_SRC: 1234,
            FieldName.TP_DST: 80,
        }

    @pytest.mark.parametrize("proto", [IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ICMP])
    def test_ipv4_roundtrip(self, proto):
        header = self.full_header(proto)
        if proto == IPPROTO_ICMP:
            header[FieldName.TP_SRC] = 8
            header[FieldName.TP_DST] = 0
        raw = craft_packet(header, b"meta")
        values, payload = parse_packet(raw, in_port=7)
        assert payload == b"meta"
        assert values[FieldName.IN_PORT] == 7
        for name in (
            FieldName.DL_SRC,
            FieldName.DL_DST,
            FieldName.DL_VLAN,
            FieldName.NW_SRC,
            FieldName.NW_DST,
            FieldName.NW_PROTO,
            FieldName.NW_TOS,
            FieldName.TP_SRC,
            FieldName.TP_DST,
        ):
            assert values[name] == header[name], name

    def test_untagged_when_vlan_none(self):
        header = self.full_header(IPPROTO_TCP)
        header[FieldName.DL_VLAN] = VLAN_NONE
        raw = craft_packet(header)
        values, _ = parse_packet(raw)
        assert values[FieldName.DL_VLAN] == VLAN_NONE

    def test_arp_roundtrip(self):
        header = {
            FieldName.DL_SRC: 1,
            FieldName.DL_DST: 2,
            FieldName.DL_TYPE: ETHERTYPE_ARP,
            FieldName.DL_VLAN: VLAN_NONE,
            FieldName.NW_SRC: 0x0A000001,
            FieldName.NW_DST: 0x0A000002,
        }
        raw = craft_packet(header, b"p")
        values, payload = parse_packet(raw)
        assert values[FieldName.NW_SRC] == 0x0A000001
        assert values[FieldName.NW_DST] == 0x0A000002
        assert payload == b"p"

    def test_uncraftable_ethertype(self):
        with pytest.raises(CraftError):
            craft_packet({FieldName.DL_TYPE: 0x1234})

    def test_uncraftable_proto(self):
        header = self.full_header(99)
        with pytest.raises(CraftError):
            craft_packet(header)

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_packet(b"\x00" * 5)


IPV4_PROTOS = [IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ICMP]


def probe_frame(proto, payload, vlan=VLAN_NONE):
    return craft_packet(
        {
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.DL_VLAN: vlan,
            FieldName.NW_PROTO: proto,
            FieldName.NW_SRC: 0x0A000001,
            FieldName.NW_DST: 0x0A000002,
            FieldName.TP_SRC: 8,
            FieldName.TP_DST: 0,
        },
        payload,
    )


def with_ipv4_total_length(frame: bytes, total_length: int) -> bytes:
    """An untagged frame whose IPv4 header claims ``total_length``,
    header checksum recomputed so only the length lies."""
    patched = bytearray(frame)
    patched[16:18] = total_length.to_bytes(2, "big")
    patched[24:26] = b"\x00\x00"
    patched[24:26] = internet_checksum(bytes(patched[14:34])).to_bytes(2, "big")
    return bytes(patched)


class TestLengthFieldsThatLie:
    """A length field is a claim about the bytes present.  Bytes beyond
    the IPv4 ``total_length`` are link padding, never payload; a claim
    the bytes cannot back is a ``ParseError`` — so a truncated probe is
    not mistaken for foreign traffic with an undecodable payload."""

    META = ProbeMetadata(switch_id=3, rule_cookie=99, nonce=7).encode()

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    @pytest.mark.parametrize("payload", [b"", b"meta"])
    def test_ethernet_padding_is_not_payload(self, proto, payload):
        frame = probe_frame(proto, payload)
        assert len(frame) < 60
        padded = frame.ljust(60, b"\x00")
        assert parse_packet(padded) == parse_packet(frame)
        assert parse_packet(padded)[1] == payload

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    @pytest.mark.parametrize("cut", [1, 10, len(META)])
    @pytest.mark.parametrize("vlan", [VLAN_NONE, 0x123])
    def test_frame_shorter_than_total_length_rejected(self, proto, cut, vlan):
        frame = probe_frame(proto, self.META, vlan)
        assert ProbeMetadata.decode(parse_packet(frame)[1]) is not None
        with pytest.raises(ParseError, match="bad IPv4 total length"):
            parse_packet(frame[:-cut])

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    def test_total_length_shorter_than_the_header_rejected(self, proto):
        frame = with_ipv4_total_length(probe_frame(proto, self.META), 19)
        with pytest.raises(ParseError, match="bad IPv4 total length: 19"):
            parse_packet(frame)

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    def test_total_length_cuts_the_datagram_short(self, proto):
        frame = probe_frame(proto, self.META)
        shorter = with_ipv4_total_length(frame, len(frame) - 14 - 5)
        if proto == IPPROTO_UDP:  # its own length now overruns
            with pytest.raises(ParseError, match="bad UDP length"):
                parse_packet(shorter)
        else:
            assert parse_packet(shorter)[1] == self.META[:-5]

    def test_udp_length_beyond_its_datagram_rejected(self):
        frame = bytearray(probe_frame(IPPROTO_UDP, self.META))
        claimed = 8 + len(self.META) + 1
        frame[38:40] = claimed.to_bytes(2, "big")
        with pytest.raises(ParseError, match=f"bad UDP length: {claimed}"):
            parse_packet(bytes(frame))

    def test_udp_length_within_its_datagram_is_honoured(self):
        frame = bytearray(probe_frame(IPPROTO_UDP, self.META))
        frame[38:40] = (8 + 4).to_bytes(2, "big")
        assert parse_packet(bytes(frame))[1] == self.META[:4]


class TestNormalization:
    def test_invalid_dl_type_replaced_with_valid(self):
        values = {FieldName.DL_TYPE: 0x1234}
        normalized = normalize_abstract_header(values, [])
        assert normalized[FieldName.DL_TYPE] in (ETHERTYPE_IPV4, ETHERTYPE_ARP)

    def test_substitution_preserves_matches(self):
        # §5.2 lemma: swapping an invalid value for the spare one must
        # not change Matches(probe, R) for any rule match R.
        matches = [
            Match.build(dl_type=ETHERTYPE_IPV4, nw_src=1),
            Match.build(nw_dst=2),
            Match.wildcard(),
        ]
        values = {FieldName.DL_TYPE: 0x9999, FieldName.NW_SRC: 1}
        before = [m.matches(values) for m in matches]
        normalized = normalize_abstract_header(values, matches)
        after = [m.matches(normalized) for m in matches]
        # dl_type was invalid: no rule can exact-match it, so results on
        # rules that matched before must be preserved.
        assert before == after

    def test_pinned_domain_unsatisfiable(self):
        # Every valid dl_type is used by some rule with a different
        # match result than the invalid original: no safe substitute.
        matches = [
            Match.build(dl_type=ETHERTYPE_IPV4),
            Match.build(dl_type=ETHERTYPE_ARP),
        ]
        values = {FieldName.DL_TYPE: 0x9999}
        with pytest.raises(CraftError):
            normalize_abstract_header(values, matches)

    def test_conditionally_excluded_fields_zeroed(self):
        values = {
            FieldName.DL_TYPE: ETHERTYPE_ARP,
            FieldName.NW_PROTO: IPPROTO_TCP,
            FieldName.NW_TOS: 7,
            FieldName.TP_SRC: 80,
        }
        normalized = normalize_abstract_header(values, [])
        # ARP has no nw_proto/nw_tos/tp_* in our model.
        assert normalized[FieldName.NW_PROTO] == 0
        assert normalized[FieldName.NW_TOS] == 0
        assert normalized[FieldName.TP_SRC] == 0

    def test_transport_ports_zeroed_for_bad_proto(self):
        values = {
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.NW_PROTO: IPPROTO_TCP,
            FieldName.TP_SRC: 80,
        }
        normalized = normalize_abstract_header(values, [])
        assert normalized[FieldName.TP_SRC] == 80  # TCP keeps its ports
        values[FieldName.NW_PROTO] = 99
        normalized = normalize_abstract_header(
            values, [Match.build(nw_proto=IPPROTO_UDP)]
        )
        # proto fixed to a valid value that preserves the (non-)match;
        # ICMP/TCP both avoid matching the UDP rule.
        assert normalized[FieldName.NW_PROTO] in (IPPROTO_TCP, IPPROTO_ICMP)

    def test_normalized_header_is_craftable(self):
        values = {FieldName.DL_TYPE: 0xDEAD, FieldName.NW_PROTO: 0xFE}
        normalized = normalize_abstract_header(values, [])
        raw = craft_packet(normalized)
        parsed, _ = parse_packet(raw)
        assert parsed[FieldName.DL_TYPE] == normalized[FieldName.DL_TYPE]


class TestProbeMetadata:
    def test_roundtrip(self):
        meta = ProbeMetadata(
            switch_id=7, rule_cookie=123456789, nonce=42, expected_drop=True
        )
        decoded = ProbeMetadata.decode(meta.encode())
        assert decoded == meta

    def test_non_probe_payload(self):
        assert ProbeMetadata.decode(b"not a probe payload....") is None
        assert ProbeMetadata.decode(b"") is None

    def test_survives_packet_roundtrip(self):
        meta = ProbeMetadata(switch_id=1, rule_cookie=2, nonce=3)
        header = {
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.NW_PROTO: IPPROTO_UDP,
        }
        raw = craft_packet(header, meta.encode())
        _, payload = parse_packet(raw)
        assert ProbeMetadata.decode(payload) == meta


class TestUntaggedPriorityNarrowing:
    """An untagged frame has no TCI, so no priority bits: a probe whose
    header kept ``dl_vlan_pcp=3`` beside ``dl_vlan=VLAN_NONE`` could
    never be observed as generated."""

    def _untagged(self, pcp):
        return {
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.NW_PROTO: IPPROTO_UDP,
            FieldName.DL_VLAN: VLAN_NONE,
            FieldName.DL_VLAN_PCP: pcp,
        }

    def test_wire_drops_the_priority(self):
        values, _ = parse_packet(craft_packet(self._untagged(3)))
        assert values[FieldName.DL_VLAN_PCP] == 0

    def test_projection_agrees_with_the_wire(self):
        items = dict(wire_visible_items(self._untagged(3)))
        assert items[FieldName.DL_VLAN_PCP] == 0
        parsed, _ = parse_packet(craft_packet(self._untagged(3)))
        assert wire_visible_items(self._untagged(3)) == wire_visible_items(
            parsed
        )

    def test_tagged_frame_keeps_its_priority(self):
        header = {**self._untagged(3), FieldName.DL_VLAN: 5}
        assert dict(wire_visible_items(header))[FieldName.DL_VLAN_PCP] == 3
        normalized = normalize_abstract_header(header, [])
        assert normalized[FieldName.DL_VLAN_PCP] == 3

    def test_normalization_substitutes_zero_when_no_match_cares(self):
        elsewhere = Match.build(nw_dst=0x0A000001)
        normalized = normalize_abstract_header(
            self._untagged(3), [elsewhere]
        )
        assert normalized[FieldName.DL_VLAN_PCP] == 0
        values, _ = parse_packet(craft_packet(normalized))
        assert wire_visible_items(values) == wire_visible_items(normalized)

    def test_substitution_preserves_matches(self):
        other = Match.build(dl_vlan_pcp=5)
        normalized = normalize_abstract_header(self._untagged(3), [other])
        assert normalized[FieldName.DL_VLAN_PCP] == 0
        assert not other.matches(normalized)

    def test_pinned_priority_is_uncraftable(self):
        pinned = Match.build(dl_vlan_pcp=3)
        with pytest.raises(CraftError):
            normalize_abstract_header(self._untagged(3), [pinned])


class TestIcmpTransportNarrowing:
    """OF 1.0 maps ICMP type/code onto tp_src/tp_dst: one wire byte."""

    def _icmp_header(self, tp_src=0, tp_dst=0):
        return {
            FieldName.DL_TYPE: ETHERTYPE_IPV4,
            FieldName.NW_PROTO: 1,  # ICMP
            FieldName.NW_SRC: 0x0A000001,
            FieldName.NW_DST: 0x0A000002,
            FieldName.TP_SRC: tp_src,
            FieldName.TP_DST: tp_dst,
        }

    def test_wide_tp_values_are_substituted(self):
        normalized = normalize_abstract_header(
            self._icmp_header(tp_src=0x1234, tp_dst=0x1F90), []
        )
        assert normalized[FieldName.TP_SRC] <= 0xFF
        assert normalized[FieldName.TP_DST] <= 0xFF

    def test_normalized_header_roundtrips(self):
        normalized = normalize_abstract_header(
            self._icmp_header(tp_src=0x1234, tp_dst=0x1F90), []
        )
        packet = craft_packet(normalized)
        values, _payload = parse_packet(packet, in_port=0)
        assert wire_visible_items(values) == wire_visible_items(normalized)

    def test_substitution_preserves_matches(self):
        match = Match.build(tp_dst=0x40)
        normalized = normalize_abstract_header(
            self._icmp_header(tp_dst=0x1F90), [match]
        )
        # 0x1F90 does not match tp_dst=0x40; the substitute must not
        # start matching it.
        assert not match.matches(normalized)

    def test_pinned_wide_value_is_uncraftable(self):
        match = Match.build(tp_dst=0x1F90)
        with pytest.raises(CraftError):
            normalize_abstract_header(
                self._icmp_header(tp_dst=0x1F90), [match]
            )

    def test_wire_visible_items_mask_icmp_tp(self):
        items = dict(wire_visible_items(self._icmp_header(tp_dst=0x1F90)))
        assert items[FieldName.TP_DST] == 0x90

    def test_tcp_keeps_full_width(self):
        header = self._icmp_header(tp_dst=0x1F90)
        header[FieldName.NW_PROTO] = 6  # TCP
        normalized = normalize_abstract_header(header, [])
        assert normalized[FieldName.TP_DST] == 0x1F90
