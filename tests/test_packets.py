"""Tests for packet crafting and parsing: protocol round trips,
checksums, the one-pass codec against the layered reference
(``tests/packet_reference.py``), and the §5.2 normalization lemmas."""

import struct

import packet_reference as reference
import pytest
from frame_helpers import craft, packed, parse
from hypothesis_budget import examples
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    HEADER,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    VLAN_NONE,
    FieldName,
)
from repro.openflow.match import Match
from repro.openflow.table import pack_header
from repro.packets.checksum import sum16
from repro.packets.craft import (
    CraftError,
    normalize_abstract_header,
    wire_visible_items,
)
from repro.packets.ipv4 import ip_to_str, str_to_ip
from repro.packets.parse import ParseError, parse_packet
from repro.packets.payload import ProbeMetadata


def words_summing_to_a_multiple_of_0xffff(words: list[int]) -> bytes:
    """``words`` plus the one word that brings their sum to a non-zero
    multiple of 0xFFFF: one's-complement "negative zero", the corner
    where a sum mod 0xFFFF and the RFC 1071 fold disagree."""
    last = 0xFFFF - sum(words) % 0xFFFF
    return struct.pack(f"!{len(words) + 1}H", *words, last)


#: Payloads at the lengths and contents where a checksum can go wrong:
#: empty, one byte, odd, long; all-zero (the sum's only true zero),
#: all-0xFF and other sums that are non-zero multiples of 0xFFFF.
corner_payloads = st.one_of(
    st.binary(max_size=81),
    st.sampled_from([0, 1, 2, 25, 63, 64, 1400]).flatmap(
        lambda n: st.sampled_from([bytes(n), b"\xff" * n])
    ),
    st.binary(min_size=1399, max_size=1400),
    st.lists(st.integers(0, 0xFFFF), max_size=40).map(
        words_summing_to_a_multiple_of_0xffff
    ),
    # Long runs of 0xFF: the sum carries out of 16 bits, and out of the
    # fold itself, at odd and even lengths alike.
    st.builds(
        lambda n, tail: b"\xff" * n + tail,
        st.integers(0, 1500),
        st.binary(max_size=3),
    ),
)


class TestChecksum:
    @settings(max_examples=examples(300), deadline=None)
    @given(corner_payloads)
    @example(b"")
    @example(b"\x00")
    @example(b"\xff\xff")
    @example(b"\xff\xfe\x00\x01")
    def test_matches_the_rfc1071_reference(self, data):
        assert sum16(data) ^ 0xFFFF == reference.internet_checksum(data)

    def test_the_sum_has_two_zeros(self):
        """Only all-zero data sums to 0; any other multiple of 0xFFFF
        sums to 0xFFFF (checksum 0), not to 0 (checksum 0xFFFF)."""
        for zeros in (b"", b"\x00", bytes(2), bytes(25), bytes(1400)):
            assert sum16(zeros) == 0
        for data in (
            b"\xff\xff",
            b"\xff" * 26,
            b"\xff\xfe\x00\x01",
            b"\x80\x00\x7f\xff" * 3,
            words_summing_to_a_multiple_of_0xffff([1, 2, 3]),
        ):
            assert sum16(data) == 0xFFFF, data

    def test_rfc1071_example(self):
        # Canonical example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert sum16(data) ^ 0xFFFF == 0x220D

    def test_odd_length_padded(self):
        assert sum16(b"\xff") == sum16(b"\xff\x00")

    def test_verify_with_embedded_checksum(self):
        data = bytes([0x00, 0x01, 0xF2, 0x03])
        checksum = sum16(data) ^ 0xFFFF
        full = data + checksum.to_bytes(2, "big")
        assert sum16(full) == 0xFFFF


IPV4_PROTOS = [IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ICMP]


def ipv4_header(proto, **fields):
    return {
        FieldName.DL_TYPE: ETHERTYPE_IPV4,
        FieldName.NW_PROTO: proto,
        **{FieldName(name): value for name, value in fields.items()},
    }


def probe_frame(proto, payload, vlan=VLAN_NONE):
    return craft(
        ipv4_header(
            proto,
            dl_vlan=vlan,
            nw_src=0x0A000001,
            nw_dst=0x0A000002,
            tp_src=8,
            tp_dst=0,
        ),
        payload,
    )


def resealed(frame: bytearray, ihl: int = 20) -> bytes:
    """An untagged frame whose IPv4 header was patched, with the header
    checksum recomputed: only the patched field lies."""
    frame[24:26] = b"\x00\x00"
    frame[24:26] = reference.internet_checksum(
        bytes(frame[14 : 14 + ihl])
    ).to_bytes(2, "big")
    return bytes(frame)


def with_ipv4_total_length(frame: bytes, total_length: int) -> bytes:
    patched = bytearray(frame)
    patched[16:18] = total_length.to_bytes(2, "big")
    return resealed(patched)


class TestEthernet:
    def test_untagged_roundtrip(self):
        header = ipv4_header(
            IPPROTO_UDP, dl_dst=0x112233445566, dl_src=0xAABBCCDDEEFF
        )
        frame = craft(header, b"payload")
        assert frame[12:14] == b"\x08\x00"  # no tag before the ethertype
        values, payload = parse(frame)
        assert values[FieldName.DL_DST] == 0x112233445566
        assert values[FieldName.DL_SRC] == 0xAABBCCDDEEFF
        assert values[FieldName.DL_TYPE] == ETHERTYPE_IPV4
        assert values[FieldName.DL_VLAN] == VLAN_NONE
        assert payload == b"payload"

    def test_vlan_tag_roundtrip(self):
        header = ipv4_header(
            IPPROTO_UDP, dl_dst=1, dl_src=2, dl_vlan=0xF03, dl_vlan_pcp=5
        )
        frame = craft(header, b"x")
        assert frame[12:16] == bytes([0x81, 0x00, 0xAF, 0x03])
        values, payload = parse(frame)
        assert values[FieldName.DL_VLAN] == 0xF03
        assert values[FieldName.DL_VLAN_PCP] == 5
        assert values[FieldName.DL_TYPE] == ETHERTYPE_IPV4
        assert payload == b"x"

    def test_reserved_vlan_id_rejected(self):
        """VID 0xFFF is reserved, and the header model's "untagged": a
        tag carrying it has no header to parse into (its priority
        would survive in a header that says no tag)."""
        frame = bytearray(craft(ipv4_header(IPPROTO_UDP, dl_vlan=7)))
        assert frame[12:14] == b"\x81\x00"
        frame[14:16] = (5 << 13 | 0xFFF).to_bytes(2, "big")
        with pytest.raises(ParseError, match="reserved VLAN id"):
            parse(bytes(frame))
        with pytest.raises(ParseError, match="reserved VLAN id"):
            reference.parse_packet(bytes(frame))

    def test_short_frame_rejected(self):
        with pytest.raises(ParseError, match="too short for Ethernet"):
            parse(b"short")
        tagged = craft(ipv4_header(IPPROTO_UDP, dl_vlan=7))
        with pytest.raises(ParseError, match="too short for VLAN tag"):
            parse(tagged[:17])

    def test_mac_to_str(self):
        frame = craft(ipv4_header(IPPROTO_UDP, dl_dst=0xAABBCCDDEEFF))
        assert frame[:6].hex(":") == "aa:bb:cc:dd:ee:ff"
        frame = craft(ipv4_header(IPPROTO_UDP, dl_src=(1 << 48) - 1))
        assert frame[6:12] == b"\xff" * 6
        assert parse(frame)[0][FieldName.DL_SRC] == (1 << 48) - 1


class TestIpv4:
    def test_roundtrip_and_checksum(self):
        header = ipv4_header(
            IPPROTO_TCP, nw_src=0x0A000001, nw_dst=0x0A000002, nw_tos=0x2A
        )
        frame = craft(header, b"data")
        assert sum16(frame[14:34]) == 0xFFFF
        assert frame[14:34] == reference.craft_packet(header, b"data")[14:34]
        values, payload = parse(frame)
        assert values[FieldName.NW_SRC] == 0x0A000001
        assert values[FieldName.NW_DST] == 0x0A000002
        assert values[FieldName.NW_PROTO] == IPPROTO_TCP
        assert values[FieldName.NW_TOS] == 0x2A
        assert payload == b"data"

    def test_corrupted_checksum_rejected(self):
        frame = bytearray(craft(ipv4_header(IPPROTO_TCP, nw_src=1, nw_dst=2)))
        frame[14 + 12] ^= 0xFF
        with pytest.raises(ParseError, match="header checksum mismatch"):
            parse(bytes(frame))

    def test_options_are_skipped(self):
        """An IHL above 5: the header checksum covers the options and
        the transport header starts after them."""
        frame = bytearray(craft(ipv4_header(IPPROTO_UDP), b"opt"))
        options = b"\x01" * 8
        frame[14] = 0x47
        frame[16:18] = (int.from_bytes(frame[16:18], "big") + 8).to_bytes(
            2, "big"
        )
        frame[34:34] = options
        with_options = resealed(frame, ihl=28)
        assert parse(with_options)[1] == b"opt"
        assert parse_packet(with_options) == reference_parse(with_options)
        frame[14] = 0x44
        with pytest.raises(ParseError, match="bad IHL: 16"):
            parse(bytes(frame))

    def test_ip_string_conversions(self):
        assert ip_to_str(0x0A000001) == "10.0.0.1"
        assert str_to_ip("10.0.0.1") == 0x0A000001
        with pytest.raises(ValueError):
            str_to_ip("10.0.0")
        with pytest.raises(ValueError):
            str_to_ip("10.0.0.999")


class TestTransport:
    def roundtrip(self, proto, tp_src, tp_dst, payload):
        frame = craft(
            ipv4_header(
                proto, nw_src=1, nw_dst=2, tp_src=tp_src, tp_dst=tp_dst
            ),
            payload,
        )
        values, parsed_payload = parse(frame)
        return (
            values[FieldName.TP_SRC],
            values[FieldName.TP_DST],
            parsed_payload,
        )

    def test_tcp_roundtrip(self):
        assert self.roundtrip(IPPROTO_TCP, 1234, 443, b"hello") == (
            1234,
            443,
            b"hello",
        )

    def test_udp_roundtrip(self):
        assert self.roundtrip(IPPROTO_UDP, 53, 5353, b"query") == (
            53,
            5353,
            b"query",
        )

    def test_icmp_roundtrip(self):
        assert self.roundtrip(IPPROTO_ICMP, 8, 0, b"ping") == (8, 0, b"ping")

    def test_truncated_rejected(self):
        """A datagram that ends inside its transport header — its
        ``total_length`` says so, the bytes are all there."""
        for proto, name, header_len in (
            (IPPROTO_TCP, "TCP", 20),
            (IPPROTO_UDP, "UDP", 8),
            (IPPROTO_ICMP, "ICMP", 8),
        ):
            frame = craft(ipv4_header(proto))
            assert len(frame) == 14 + 20 + header_len
            for kept in (0, 3, header_len - 1):
                short = with_ipv4_total_length(frame, 20 + kept)
                with pytest.raises(
                    ParseError, match=f"too short for {name}: {kept} bytes"
                ):
                    parse(short)
        with pytest.raises(ParseError, match="too short for IPv4: 19 bytes"):
            parse(frame[: 14 + 19])

    def test_bad_tcp_data_offset_rejected(self):
        frame = bytearray(craft(ipv4_header(IPPROTO_TCP), b"abcd"))
        frame[34 + 12] = 0x40  # 16 bytes: inside the fixed header
        with pytest.raises(ParseError, match="bad TCP data offset: 16"):
            parse(bytes(frame))
        frame[34 + 12] = 0x70  # 28 bytes: beyond the 24 present
        with pytest.raises(ParseError, match="bad TCP data offset: 28"):
            parse(bytes(frame))
        frame[34 + 12] = 0x60  # 24 bytes: the payload read as options
        assert parse(bytes(frame))[1] == b""

    def test_unsupported_protocol_rejected(self):
        frame = bytearray(craft(ipv4_header(IPPROTO_UDP)))
        frame[14 + 9] = 99
        with pytest.raises(ParseError, match="unsupported nw_proto 99"):
            parse(resealed(frame))


class TestArp:
    HEADER = {
        FieldName.DL_TYPE: ETHERTYPE_ARP,
        FieldName.DL_SRC: 0xAABBCCDDEEFF,
        FieldName.NW_SRC: 0x0A000001,
        FieldName.NW_DST: 0x0A000002,
    }

    def test_roundtrip(self):
        frame = craft(self.HEADER, b"tail")
        # A request from the frame's own source, target MAC unknown.
        assert frame[14:22] == bytes([0, 1, 8, 0, 6, 4, 0, 1])
        assert frame[22:28] == frame[6:12]
        assert frame[32:38] == bytes(6)
        values, payload = parse(frame)
        assert values[FieldName.NW_SRC] == 0x0A000001
        assert values[FieldName.NW_DST] == 0x0A000002
        assert values[FieldName.NW_PROTO] == 0  # ARP carries none
        assert payload == b"tail"

    def test_malformed_rejected(self):
        frame = craft(self.HEADER)
        with pytest.raises(ParseError, match="too short for ARP: 27 bytes"):
            parse(frame[:-1])
        for offset, message in (
            (15, "unsupported ARP htype/ptype: 0/0x800"),
            (17, "unsupported ARP htype/ptype: 1/0x801"),
            (18, "unsupported ARP address lengths: 7/4"),
            (19, "unsupported ARP address lengths: 6/5"),
        ):
            bad = bytearray(frame)
            bad[offset] ^= 1
            with pytest.raises(ParseError, match=message):
                parse(bytes(bad))
        bad = bytearray(frame)
        bad[12:14] = b"\x12\x34"
        with pytest.raises(ParseError, match="unsupported ethertype 0x1234"):
            parse(bytes(bad))


# ----- the one-pass codec against the layered reference --------------------


def _any_value(name: FieldName) -> st.SearchStrategy[int]:
    return st.integers(0, HEADER.field(name).max_value)


#: All four L3/L4 shapes and the two uncraftable classes, tagged and
#: untagged, every other field anywhere within its width.
any_headers = st.fixed_dictionaries(
    {
        **{name: _any_value(name) for name in HEADER.names()},
        FieldName.DL_TYPE: st.sampled_from(
            (ETHERTYPE_IPV4, ETHERTYPE_IPV4, ETHERTYPE_ARP, 0x1234)
        ),
        FieldName.NW_PROTO: st.sampled_from(
            (IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP, 99)
        ),
        FieldName.DL_VLAN: st.one_of(
            st.just(VLAN_NONE), _any_value(FieldName.DL_VLAN)
        ),
        # Type 0 / code 0 over an all-zero payload is ICMP's true zero.
        FieldName.TP_SRC: st.one_of(st.just(0), _any_value(FieldName.TP_SRC)),
        FieldName.TP_DST: st.one_of(st.just(0), _any_value(FieldName.TP_DST)),
    }
)


def reference_parse(raw: bytes, in_port: int = 0) -> tuple[int, bytes]:
    """The layered reference's parse, its header dict packed: what
    ``parse_packet`` must return."""
    values, payload = reference.parse_packet(raw, in_port)
    return pack_header(values), payload


def outcome(codec, *args):
    """What a codec call did: its result, or its own error class and
    message.  Any other exception propagates and fails the test."""
    try:
        return "ok", codec(*args)
    except (CraftError, ParseError) as exc:
        return type(exc).__name__, str(exc)


class TestOnePassAgainstLayeredReference:
    """``craft_packet`` / ``parse_packet`` walk a frame once, from and
    to a packed header; the layered codec they replaced, on header
    dicts, is the oracle.  Same bytes, same headers (the reference's
    packed), same errors — and nothing but ``CraftError`` /
    ``ParseError`` for an uncraftable class or malformed bytes."""

    @settings(max_examples=examples(150), deadline=None)
    @given(
        values=any_headers,
        missing=st.sets(st.sampled_from(sorted(HEADER.names())), max_size=3),
        payload=corner_payloads,
        in_port=st.integers(0, 0xFFFF),
    )
    def test_same_bytes_same_headers_same_errors(
        self, values, missing, payload, in_port
    ):
        values = {k: v for k, v in values.items() if k not in missing}
        crafted = outcome(craft, values, payload)
        assert crafted == outcome(reference.craft_packet, values, payload)
        if crafted[0] != "ok":
            assert crafted[0] == "CraftError"
            return
        frame = crafted[1]
        parsed = outcome(parse_packet, frame, in_port)
        assert parsed[0] == "ok" and parsed[1][1] == payload
        assert parsed == outcome(reference_parse, frame, in_port)
        for cut in range(len(frame)):
            prefix = frame[:cut]
            assert outcome(parse_packet, prefix) == outcome(
                reference_parse, prefix
            ), cut
        flipped = bytearray(frame)
        for bit in range(8 * min(60, len(frame))):
            flipped[bit >> 3] ^= 1 << (bit & 7)
            damaged = bytes(flipped)
            assert outcome(parse_packet, damaged) == outcome(
                reference_parse, damaged
            ), bit
            flipped[bit >> 3] ^= 1 << (bit & 7)

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    @pytest.mark.parametrize("size", [0, 1, 2, 25, 26, 1400])
    @pytest.mark.parametrize("fill", [b"\x00", b"\xff"])
    def test_all_zero_and_all_ones_payloads(self, proto, size, fill):
        for tp in (0, 0xFF):
            header = ipv4_header(proto, tp_src=tp, tp_dst=tp)
            frame = craft(header, fill * size)
            assert frame == reference.craft_packet(header, fill * size)
            assert parse(frame)[1] == fill * size

    def test_icmp_true_zero_and_negative_zero(self):
        """Type 0, code 0 over zeros sums to 0: checksum 0xFFFF.  A
        message summing to a non-zero multiple of 0xFFFF: checksum 0."""
        echo_reply = ipv4_header(IPPROTO_ICMP, tp_src=0, tp_dst=0)
        for zeros in (b"", bytes(1), bytes(26)):
            frame = craft(echo_reply, zeros)
            assert frame[36:38] == b"\xff\xff"
            assert frame == reference.craft_packet(echo_reply, zeros)
        echo = ipv4_header(IPPROTO_ICMP, tp_src=8, tp_dst=0)
        payload = words_summing_to_a_multiple_of_0xffff([0x0800])[2:]
        frame = craft(echo, payload)
        assert frame[36:38] == b"\x00\x00"
        assert frame == reference.craft_packet(echo, payload)

    def test_udp_zero_checksum_is_sent_as_0xffff(self):
        header = ipv4_header(
            IPPROTO_UDP, nw_src=0x0A000001, nw_dst=0x0A000002, tp_src=53
        )
        # Pseudo-header, UDP header and payload word sum to 0xFFFF * k.
        rest = 0x0A000001 + 0x0A000002 + 17 + 2 * (8 + 2) + 53
        payload = (0xFFFF - rest % 0xFFFF).to_bytes(2, "big")
        frame = craft(header, payload)
        assert frame[40:42] == b"\xff\xff"
        assert frame == reference.craft_packet(header, payload)

    @pytest.mark.parametrize(
        "field, proto",
        [
            ("dl_src", IPPROTO_UDP),
            ("dl_dst", IPPROTO_UDP),
            ("nw_src", IPPROTO_ICMP),
            ("nw_dst", IPPROTO_TCP),
            ("tp_src", IPPROTO_TCP),
            ("tp_dst", IPPROTO_UDP),
        ],
    )
    def test_a_value_wider_than_its_wire_field_raises(self, field, proto):
        """Never a silently truncated field — in either codec.  A packed
        header has no room for a wider value: packing it is refused, as
        the reference refuses to craft it; the widest value the field
        holds crafts and parses back whole."""
        width = HEADER.field(FieldName(field)).width
        for value in (1 << width, -1):
            header = ipv4_header(proto, **{field: value})
            with pytest.raises(ValueError):
                packed(header)
            with pytest.raises((ValueError, OverflowError, struct.error)):
                reference.craft_packet(header)
        widest = ipv4_header(proto, **{field: (1 << width) - 1})
        frame = craft(widest)
        assert frame == reference.craft_packet(widest)
        assert parse(frame)[0][FieldName(field)] == (1 << width) - 1
        with pytest.raises(struct.error):  # total_length is 16 bits
            craft(ipv4_header(proto), bytes(0x10000))


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
        raw = craft(header, b"meta")
        values, payload = parse(raw, in_port=7)
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
        raw = craft(header)
        values, _ = parse(raw)
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
        raw = craft(header, b"p")
        values, payload = parse(raw)
        assert values[FieldName.NW_SRC] == 0x0A000001
        assert values[FieldName.NW_DST] == 0x0A000002
        assert payload == b"p"

    def test_uncraftable_ethertype(self):
        with pytest.raises(CraftError):
            craft({FieldName.DL_TYPE: 0x1234})

    def test_uncraftable_proto(self):
        header = self.full_header(99)
        with pytest.raises(CraftError):
            craft(header)

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse(b"\x00" * 5)


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
        assert parse(padded) == parse(frame)
        assert parse(padded)[1] == payload

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    @pytest.mark.parametrize("cut", [1, 10, len(META)])
    @pytest.mark.parametrize("vlan", [VLAN_NONE, 0x123])
    def test_frame_shorter_than_total_length_rejected(self, proto, cut, vlan):
        frame = probe_frame(proto, self.META, vlan)
        assert ProbeMetadata.decode(parse(frame)[1]) is not None
        with pytest.raises(ParseError, match="bad IPv4 total length"):
            parse(frame[:-cut])

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    def test_total_length_shorter_than_the_header_rejected(self, proto):
        frame = with_ipv4_total_length(probe_frame(proto, self.META), 19)
        with pytest.raises(ParseError, match="bad IPv4 total length: 19"):
            parse(frame)

    @pytest.mark.parametrize("proto", IPV4_PROTOS)
    def test_total_length_cuts_the_datagram_short(self, proto):
        frame = probe_frame(proto, self.META)
        shorter = with_ipv4_total_length(frame, len(frame) - 14 - 5)
        if proto == IPPROTO_UDP:  # its own length now overruns
            with pytest.raises(ParseError, match="bad UDP length"):
                parse(shorter)
        else:
            assert parse(shorter)[1] == self.META[:-5]

    def test_udp_length_beyond_its_datagram_rejected(self):
        frame = bytearray(probe_frame(IPPROTO_UDP, self.META))
        claimed = 8 + len(self.META) + 1
        frame[38:40] = claimed.to_bytes(2, "big")
        with pytest.raises(ParseError, match=f"bad UDP length: {claimed}"):
            parse(bytes(frame))

    def test_udp_length_within_its_datagram_is_honoured(self):
        frame = bytearray(probe_frame(IPPROTO_UDP, self.META))
        frame[38:40] = (8 + 4).to_bytes(2, "big")
        assert parse(bytes(frame))[1] == self.META[:4]


def normalize(values, matches):
    """:func:`normalize_abstract_header` on a header dict: packed in,
    every field unpacked out."""
    packed = normalize_abstract_header(pack_header(values), matches)
    return HEADER.unpack(packed)


class TestNormalization:
    def test_invalid_dl_type_replaced_with_valid(self):
        values = {FieldName.DL_TYPE: 0x1234}
        normalized = normalize(values, [])
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
        normalized = normalize(values, matches)
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
            normalize(values, matches)

    def test_conditionally_excluded_fields_zeroed(self):
        values = {
            FieldName.DL_TYPE: ETHERTYPE_ARP,
            FieldName.NW_PROTO: IPPROTO_TCP,
            FieldName.NW_TOS: 7,
            FieldName.TP_SRC: 80,
        }
        normalized = normalize(values, [])
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
        normalized = normalize(values, [])
        assert normalized[FieldName.TP_SRC] == 80  # TCP keeps its ports
        values[FieldName.NW_PROTO] = 99
        normalized = normalize(
            values, [Match.build(nw_proto=IPPROTO_UDP)]
        )
        # proto fixed to a valid value that preserves the (non-)match;
        # ICMP/TCP both avoid matching the UDP rule.
        assert normalized[FieldName.NW_PROTO] in (IPPROTO_TCP, IPPROTO_ICMP)

    def test_normalized_header_is_craftable(self):
        values = {FieldName.DL_TYPE: 0xDEAD, FieldName.NW_PROTO: 0xFE}
        normalized = normalize(values, [])
        raw = craft(normalized)
        parsed, _ = parse(raw)
        assert parsed[FieldName.DL_TYPE] == normalized[FieldName.DL_TYPE]

    @settings(max_examples=examples(300), deadline=None)
    @given(
        values=st.fixed_dictionaries(
            {
                **{name: _any_value(name) for name in HEADER.names()},
                FieldName.DL_TYPE: st.one_of(
                    st.sampled_from((ETHERTYPE_IPV4, ETHERTYPE_ARP)),
                    _any_value(FieldName.DL_TYPE),
                ),
                FieldName.NW_PROTO: st.one_of(
                    st.sampled_from((IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP)),
                    _any_value(FieldName.NW_PROTO),
                ),
                FieldName.DL_VLAN: st.one_of(
                    st.just(VLAN_NONE), _any_value(FieldName.DL_VLAN)
                ),
            }
        ),
        pinned=st.lists(
            st.dictionaries(
                st.sampled_from(
                    (
                        "dl_type",
                        "nw_proto",
                        "dl_vlan",
                        "dl_vlan_pcp",
                        "tp_src",
                        "tp_dst",
                    )
                ),
                st.sampled_from((0, 1, 6, 17, 0x40, 0x800, 0x806, 0xFFF)),
                max_size=3,
            ),
            max_size=4,
        ),
    )
    def test_every_normalized_header_crafts(self, values, pinned):
        """Normalization is where a probe becomes uncraftable: what it
        returns crafts, and every field the frame carries parses back
        as it was, so a probe's bytes can be crafted whenever they are
        wanted."""
        matches = [
            Match.build(
                **{
                    name: value & HEADER.field(FieldName(name)).max_value
                    for name, value in fields.items()
                }
            )
            for fields in pinned
        ]
        try:
            normalized = normalize(values, matches)
        except CraftError:
            return
        in_port = normalized[FieldName.IN_PORT]
        parsed, _ = parse(craft(normalized), in_port)
        assert parsed == {name: normalized[name] for name in parsed}


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
        raw = craft(header, meta.encode())
        _, payload = parse(raw)
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
        values, _ = parse(craft(self._untagged(3)))
        assert values[FieldName.DL_VLAN_PCP] == 0

    def test_projection_agrees_with_the_wire(self):
        items = dict(wire_visible_items(self._untagged(3)))
        assert items[FieldName.DL_VLAN_PCP] == 0
        parsed, _ = parse(craft(self._untagged(3)))
        assert wire_visible_items(self._untagged(3)) == wire_visible_items(
            parsed
        )

    def test_tagged_frame_keeps_its_priority(self):
        header = {**self._untagged(3), FieldName.DL_VLAN: 5}
        assert dict(wire_visible_items(header))[FieldName.DL_VLAN_PCP] == 3
        normalized = normalize(header, [])
        assert normalized[FieldName.DL_VLAN_PCP] == 3

    def test_normalization_substitutes_zero_when_no_match_cares(self):
        elsewhere = Match.build(nw_dst=0x0A000001)
        normalized = normalize(
            self._untagged(3), [elsewhere]
        )
        assert normalized[FieldName.DL_VLAN_PCP] == 0
        values, _ = parse(craft(normalized))
        assert wire_visible_items(values) == wire_visible_items(normalized)

    def test_substitution_preserves_matches(self):
        other = Match.build(dl_vlan_pcp=5)
        normalized = normalize(self._untagged(3), [other])
        assert normalized[FieldName.DL_VLAN_PCP] == 0
        assert not other.matches(normalized)

    def test_pinned_priority_is_uncraftable(self):
        pinned = Match.build(dl_vlan_pcp=3)
        with pytest.raises(CraftError):
            normalize(self._untagged(3), [pinned])


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
        normalized = normalize(
            self._icmp_header(tp_src=0x1234, tp_dst=0x1F90), []
        )
        assert normalized[FieldName.TP_SRC] <= 0xFF
        assert normalized[FieldName.TP_DST] <= 0xFF

    def test_normalized_header_roundtrips(self):
        normalized = normalize(
            self._icmp_header(tp_src=0x1234, tp_dst=0x1F90), []
        )
        packet = craft(normalized)
        values, _payload = parse(packet, in_port=0)
        assert wire_visible_items(values) == wire_visible_items(normalized)

    def test_substitution_preserves_matches(self):
        match = Match.build(tp_dst=0x40)
        normalized = normalize(
            self._icmp_header(tp_dst=0x1F90), [match]
        )
        # 0x1F90 does not match tp_dst=0x40; the substitute must not
        # start matching it.
        assert not match.matches(normalized)

    def test_pinned_wide_value_is_uncraftable(self):
        match = Match.build(tp_dst=0x1F90)
        with pytest.raises(CraftError):
            normalize(
                self._icmp_header(tp_dst=0x1F90), [match]
            )

    def test_wire_visible_items_mask_icmp_tp(self):
        items = dict(wire_visible_items(self._icmp_header(tp_dst=0x1F90)))
        assert items[FieldName.TP_DST] == 0x90

    def test_tcp_keeps_full_width(self):
        header = self._icmp_header(tp_dst=0x1F90)
        header[FieldName.NW_PROTO] = 6  # TCP
        normalized = normalize(header, [])
        assert normalized[FieldName.TP_DST] == 0x1F90
