"""The layered packet codec, kept as the reference for the one-pass one.

Until the wire was packed and unpacked in one pass per frame
(:mod:`repro.packets.craft`, :mod:`repro.packets.parse`), this was
``repro.packets``'s byte codec: one encode/decode pair and one header
object per protocol layer, each checksum a second pass over the bytes
just made.  It moved here unchanged — ``ethernet``, ``ipv4``,
``transport`` and ``arp`` in that order, then the ``craft_packet`` /
``parse_packet`` chain that called them — the way ``sat_reference.py``
keeps brute force for the solver: ``tests/test_packets.py`` holds the
one-pass codec to it byte for byte and message for message.

:func:`wire_header` is the per-field statement of the header a craft ->
parse round trip returns, as a dict; the data plane's packed
``repro.packets.craft.wire_header`` is held to it
(``tests/test_wire_carrier.py``).

:func:`internet_checksum` is RFC 1071 section 4.1 word by word, shared
by the layers below and by the checksum tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping

from normalize_reference import is_excluded

from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    HEADER,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    VALID_ETHERTYPES,
    VALID_IP_PROTOS,
    VLAN_NONE,
    FieldName,
)
from repro.packets.craft import CraftError
from repro.packets.parse import ParseError


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, complemented; odd-length
    input is zero-padded on the right."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


# ----- ethernet -----------------------------------------------------------

ETH_HEADER_LEN = 14
VLAN_TAG_LEN = 4


@dataclass(frozen=True)
class EthernetHeader:
    """Decoded Ethernet header.

    Attributes:
        dst: destination MAC as a 48-bit int.
        src: source MAC as a 48-bit int.
        ethertype: the payload's ethertype (after any VLAN tag).
        vlan: 12-bit VLAN id, or VLAN_NONE when untagged.
        vlan_pcp: 3-bit priority code point (0 when untagged).
    """

    dst: int
    src: int
    ethertype: int
    vlan: int = VLAN_NONE
    vlan_pcp: int = 0


def mac_to_bytes(mac: int) -> bytes:
    """48-bit int -> 6 bytes, network order."""
    if not 0 <= mac < (1 << 48):
        raise ValueError(f"MAC out of range: {mac:#x}")
    return mac.to_bytes(6, "big")


def encode_ethernet(header: EthernetHeader, payload: bytes) -> bytes:
    """Serialize an Ethernet frame (VLAN tag inserted when tagged)."""
    out = mac_to_bytes(header.dst) + mac_to_bytes(header.src)
    if header.vlan != VLAN_NONE:
        tci = ((header.vlan_pcp & 0x7) << 13) | (header.vlan & 0xFFF)
        out += struct.pack("!HH", ETHERTYPE_VLAN, tci)
    out += struct.pack("!H", header.ethertype)
    return out + payload


def decode_ethernet(frame: bytes) -> tuple[EthernetHeader, bytes]:
    """Parse an Ethernet frame; returns (header, payload)."""
    if len(frame) < ETH_HEADER_LEN:
        raise ValueError(f"frame too short for Ethernet: {len(frame)} bytes")
    dst = int.from_bytes(frame[0:6], "big")
    src = int.from_bytes(frame[6:12], "big")
    ethertype = struct.unpack("!H", frame[12:14])[0]
    offset = ETH_HEADER_LEN
    vlan = VLAN_NONE
    vlan_pcp = 0
    if ethertype == ETHERTYPE_VLAN:
        if len(frame) < ETH_HEADER_LEN + VLAN_TAG_LEN:
            raise ValueError("frame too short for VLAN tag")
        tci = struct.unpack("!H", frame[14:16])[0]
        vlan_pcp = (tci >> 13) & 0x7
        vlan = tci & 0xFFF
        if vlan == VLAN_NONE:
            raise ValueError("reserved VLAN id 0xfff")
        ethertype = struct.unpack("!H", frame[16:18])[0]
        offset += VLAN_TAG_LEN
    header = EthernetHeader(
        dst=dst, src=src, ethertype=ethertype, vlan=vlan, vlan_pcp=vlan_pcp
    )
    return header, frame[offset:]


# ----- ipv4 ---------------------------------------------------------------

IPV4_HEADER_LEN = 20
DEFAULT_TTL = 64


@dataclass(frozen=True)
class Ipv4Header:
    """Decoded IPv4 header (options unsupported; IHL fixed at 5).

    ``tos`` here is the 6-bit DSCP value, matching OpenFlow 1.0's
    ``nw_tos`` (which masks out the 2 ECN bits).
    """

    src: int
    dst: int
    proto: int
    tos: int = 0
    ttl: int = DEFAULT_TTL
    ident: int = 0
    total_length: int | None = None  # filled from payload when None


def encode_ipv4(header: Ipv4Header, payload: bytes) -> bytes:
    """Serialize an IPv4 packet; computes total length and checksum."""
    total_length = header.total_length
    if total_length is None:
        total_length = IPV4_HEADER_LEN + len(payload)
    version_ihl = (4 << 4) | 5
    # nw_tos occupies the DSCP bits (upper 6) of the ToS byte.
    tos_byte = (header.tos & 0x3F) << 2
    head = struct.pack(
        "!BBHHHBBH4s4s",
        version_ihl,
        tos_byte,
        total_length,
        header.ident,
        0,  # flags/fragment offset
        header.ttl,
        header.proto,
        0,  # checksum placeholder
        header.src.to_bytes(4, "big"),
        header.dst.to_bytes(4, "big"),
    )
    checksum = internet_checksum(head)
    head = head[:10] + struct.pack("!H", checksum) + head[12:]
    return head + payload


def decode_ipv4(data: bytes) -> tuple[Ipv4Header, bytes]:
    """Parse an IPv4 packet; returns (header, payload).

    The datagram ends at ``total_length``: what follows it in ``data``
    is link padding (Ethernet's 60-byte minimum), not payload.

    Raises:
        ValueError: on truncation, wrong version, bad checksum, or a
            ``total_length`` that is shorter than the header or longer
            than ``data``.
    """
    if len(data) < IPV4_HEADER_LEN:
        raise ValueError(f"too short for IPv4: {len(data)} bytes")
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        raise ValueError(f"not IPv4: version={version_ihl >> 4}")
    ihl = (version_ihl & 0xF) * 4
    if ihl < IPV4_HEADER_LEN or len(data) < ihl:
        raise ValueError(f"bad IHL: {ihl}")
    if internet_checksum(data[:ihl]) != 0:
        raise ValueError("IPv4 header checksum mismatch")
    tos_byte = data[1]
    total_length = struct.unpack("!H", data[2:4])[0]
    if not ihl <= total_length <= len(data):
        raise ValueError(f"bad IPv4 total length: {total_length}")
    ident = struct.unpack("!H", data[4:6])[0]
    ttl = data[8]
    proto = data[9]
    src = int.from_bytes(data[12:16], "big")
    dst = int.from_bytes(data[16:20], "big")
    header = Ipv4Header(
        src=src,
        dst=dst,
        proto=proto,
        tos=(tos_byte >> 2) & 0x3F,
        ttl=ttl,
        ident=ident,
        total_length=total_length,
    )
    return header, data[ihl:total_length]


# ----- transport ----------------------------------------------------------

TCP_HEADER_LEN = 20
UDP_HEADER_LEN = 8
ICMP_HEADER_LEN = 8


def _pseudo_header(src_ip: int, dst_ip: int, proto: int, length: int) -> bytes:
    return (
        src_ip.to_bytes(4, "big")
        + dst_ip.to_bytes(4, "big")
        + struct.pack("!BBH", 0, proto, length)
    )


def encode_tcp(
    src_port: int, dst_port: int, payload: bytes, src_ip: int, dst_ip: int
) -> bytes:
    """Serialize a minimal TCP segment (no options, SYN-less)."""
    header = struct.pack(
        "!HHIIBBHHH",
        src_port,
        dst_port,
        0,  # seq
        0,  # ack
        (TCP_HEADER_LEN // 4) << 4,  # data offset
        0x10,  # ACK flag, keeps middleboxes calm
        0xFFFF,  # window
        0,  # checksum placeholder
        0,  # urgent pointer
    )
    segment = header + payload
    pseudo = _pseudo_header(src_ip, dst_ip, 6, len(segment))
    checksum = internet_checksum(pseudo + segment)
    return segment[:16] + struct.pack("!H", checksum) + segment[18:]


def decode_tcp(data: bytes) -> tuple[int, int, bytes]:
    """Parse a TCP segment; returns (src_port, dst_port, payload)."""
    if len(data) < TCP_HEADER_LEN:
        raise ValueError(f"too short for TCP: {len(data)} bytes")
    src_port, dst_port = struct.unpack("!HH", data[0:4])
    data_offset = (data[12] >> 4) * 4
    if data_offset < TCP_HEADER_LEN or len(data) < data_offset:
        raise ValueError(f"bad TCP data offset: {data_offset}")
    return src_port, dst_port, data[data_offset:]


def encode_udp(
    src_port: int, dst_port: int, payload: bytes, src_ip: int, dst_ip: int
) -> bytes:
    """Serialize a UDP datagram with checksum."""
    length = UDP_HEADER_LEN + len(payload)
    header = struct.pack("!HHHH", src_port, dst_port, length, 0)
    datagram = header + payload
    pseudo = _pseudo_header(src_ip, dst_ip, 17, length)
    checksum = internet_checksum(pseudo + datagram)
    if checksum == 0:
        checksum = 0xFFFF  # RFC 768: zero checksum means "absent"
    return datagram[:6] + struct.pack("!H", checksum) + datagram[8:]


def decode_udp(data: bytes) -> tuple[int, int, bytes]:
    """Parse a UDP datagram; returns (src_port, dst_port, payload)."""
    if len(data) < UDP_HEADER_LEN:
        raise ValueError(f"too short for UDP: {len(data)} bytes")
    src_port, dst_port, length, _checksum = struct.unpack("!HHHH", data[0:8])
    if not UDP_HEADER_LEN <= length <= len(data):
        raise ValueError(f"bad UDP length: {length}")
    return src_port, dst_port, data[UDP_HEADER_LEN:length]


def encode_icmp(icmp_type: int, icmp_code: int, payload: bytes) -> bytes:
    """Serialize an ICMP message (echo-style layout)."""
    header = struct.pack("!BBHHH", icmp_type, icmp_code, 0, 0, 0)
    message = header + payload
    checksum = internet_checksum(message)
    return message[:2] + struct.pack("!H", checksum) + message[4:]


def decode_icmp(data: bytes) -> tuple[int, int, bytes]:
    """Parse an ICMP message; returns (type, code, payload)."""
    if len(data) < ICMP_HEADER_LEN:
        raise ValueError(f"too short for ICMP: {len(data)} bytes")
    icmp_type = data[0]
    icmp_code = data[1]
    return icmp_type, icmp_code, data[ICMP_HEADER_LEN:]


# ----- arp ----------------------------------------------------------------

ARP_LEN = 28
HTYPE_ETHERNET = 1
PTYPE_IPV4 = 0x0800

OP_REQUEST = 1
OP_REPLY = 2


@dataclass(frozen=True)
class ArpPacket:
    """Decoded ARP packet.

    OpenFlow 1.0 matches ARP sender/target protocol addresses through
    ``nw_src``/``nw_dst`` and the opcode through ``nw_proto``.
    """

    opcode: int
    sender_mac: int
    sender_ip: int
    target_mac: int
    target_ip: int


def encode_arp(packet: ArpPacket) -> bytes:
    """Serialize an ARP packet."""
    return struct.pack(
        "!HHBBH6s4s6s4s",
        HTYPE_ETHERNET,
        PTYPE_IPV4,
        6,
        4,
        packet.opcode,
        packet.sender_mac.to_bytes(6, "big"),
        packet.sender_ip.to_bytes(4, "big"),
        packet.target_mac.to_bytes(6, "big"),
        packet.target_ip.to_bytes(4, "big"),
    )


def decode_arp(data: bytes) -> tuple[ArpPacket, bytes]:
    """Parse an ARP packet; returns (packet, trailing bytes)."""
    if len(data) < ARP_LEN:
        raise ValueError(f"too short for ARP: {len(data)} bytes")
    (
        htype,
        ptype,
        hlen,
        plen,
        opcode,
        sender_mac,
        sender_ip,
        target_mac,
        target_ip,
    ) = struct.unpack("!HHBBH6s4s6s4s", data[:ARP_LEN])
    if htype != HTYPE_ETHERNET or ptype != PTYPE_IPV4:
        raise ValueError(f"unsupported ARP htype/ptype: {htype}/{ptype:#x}")
    if hlen != 6 or plen != 4:
        raise ValueError(f"unsupported ARP address lengths: {hlen}/{plen}")
    packet = ArpPacket(
        opcode=opcode,
        sender_mac=int.from_bytes(sender_mac, "big"),
        sender_ip=int.from_bytes(sender_ip, "big"),
        target_mac=int.from_bytes(target_mac, "big"),
        target_ip=int.from_bytes(target_ip, "big"),
    )
    return packet, data[ARP_LEN:]


# ----- the chain ----------------------------------------------------------


def craft_packet(
    values: Mapping[FieldName, int],
    payload: bytes = b"",
) -> bytes:
    """Serialize a normalized abstract header into real packet bytes.

    The ``in_port`` field is injection metadata, not packet content, and
    is ignored here.

    Raises:
        CraftError: if ``dl_type`` (or ``nw_proto`` for IPv4) holds a
            value this library cannot serialize; run
            :func:`normalize_abstract_header` first.
    """
    dl_type = values.get(FieldName.DL_TYPE, 0)
    eth_header = EthernetHeader(
        dst=values.get(FieldName.DL_DST, 0),
        src=values.get(FieldName.DL_SRC, 0),
        ethertype=dl_type,
        vlan=values.get(FieldName.DL_VLAN, VLAN_NONE),
        vlan_pcp=values.get(FieldName.DL_VLAN_PCP, 0),
    )

    if dl_type == ETHERTYPE_IPV4:
        inner = _craft_ipv4(values, payload)
    elif dl_type == ETHERTYPE_ARP:
        inner = encode_arp(
            ArpPacket(
                opcode=OP_REQUEST,
                sender_mac=values.get(FieldName.DL_SRC, 0),
                sender_ip=values.get(FieldName.NW_SRC, 0),
                target_mac=0,
                target_ip=values.get(FieldName.NW_DST, 0),
            )
        ) + payload
    else:
        raise CraftError(f"cannot craft dl_type={dl_type:#06x}")
    return encode_ethernet(eth_header, inner)


def _craft_ipv4(values: Mapping[FieldName, int], payload: bytes) -> bytes:
    nw_src = values.get(FieldName.NW_SRC, 0)
    nw_dst = values.get(FieldName.NW_DST, 0)
    nw_proto = values.get(FieldName.NW_PROTO, 0)
    tp_src = values.get(FieldName.TP_SRC, 0)
    tp_dst = values.get(FieldName.TP_DST, 0)

    if nw_proto == IPPROTO_TCP:
        inner = encode_tcp(tp_src, tp_dst, payload, nw_src, nw_dst)
    elif nw_proto == IPPROTO_UDP:
        inner = encode_udp(tp_src, tp_dst, payload, nw_src, nw_dst)
    elif nw_proto == IPPROTO_ICMP:
        # OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst.
        inner = encode_icmp(tp_src & 0xFF, tp_dst & 0xFF, payload)
    else:
        raise CraftError(f"cannot craft nw_proto={nw_proto}")

    ip_header = Ipv4Header(
        src=nw_src,
        dst=nw_dst,
        proto=nw_proto,
        tos=values.get(FieldName.NW_TOS, 0),
    )
    return encode_ipv4(ip_header, inner)


def parse_packet(
    raw: bytes, in_port: int = 0
) -> tuple[dict[FieldName, int], bytes]:
    """Parse packet bytes into (abstract header values, payload).

    Args:
        raw: the packet bytes, starting at the Ethernet header.
        in_port: the port the packet arrived on (copied into the header).

    Raises:
        ParseError: on malformed or unsupported packets.
    """
    try:
        eth, rest = decode_ethernet(raw)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    values: dict[FieldName, int] = {
        FieldName.IN_PORT: in_port,
        FieldName.DL_SRC: eth.src,
        FieldName.DL_DST: eth.dst,
        FieldName.DL_TYPE: eth.ethertype,
        FieldName.DL_VLAN: eth.vlan,
        FieldName.DL_VLAN_PCP: eth.vlan_pcp,
    }

    if eth.ethertype == ETHERTYPE_IPV4:
        return _parse_ipv4(values, rest)
    if eth.ethertype == ETHERTYPE_ARP:
        try:
            arp_pkt, payload = decode_arp(rest)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        values[FieldName.NW_SRC] = arp_pkt.sender_ip
        values[FieldName.NW_DST] = arp_pkt.target_ip
        return values, payload
    raise ParseError(f"unsupported ethertype {eth.ethertype:#06x}")


def _parse_ipv4(
    values: dict[FieldName, int], data: bytes
) -> tuple[dict[FieldName, int], bytes]:
    try:
        ip, rest = decode_ipv4(data)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    values[FieldName.NW_SRC] = ip.src
    values[FieldName.NW_DST] = ip.dst
    values[FieldName.NW_PROTO] = ip.proto
    values[FieldName.NW_TOS] = ip.tos

    try:
        if ip.proto == IPPROTO_TCP:
            tp_src, tp_dst, payload = decode_tcp(rest)
        elif ip.proto == IPPROTO_UDP:
            tp_src, tp_dst, payload = decode_udp(rest)
        elif ip.proto == IPPROTO_ICMP:
            tp_src, tp_dst, payload = decode_icmp(rest)
        else:
            raise ParseError(f"unsupported nw_proto {ip.proto}")
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    values[FieldName.TP_SRC] = tp_src
    values[FieldName.TP_DST] = tp_dst
    return values, payload


# ----- the round trip without bytes -----------------------------------------


def wire_header(
    values: Mapping[FieldName, int], in_port: int = 0
) -> dict[FieldName, int]:
    """The header dict ``parse_packet(craft_packet(values, p), in_port)``
    returns, field by field: every field the header's class carries
    (parent links followed, ``in_port`` set to ``in_port``), ICMP
    type/code cut to a byte each, an untagged frame's priority 0.  A
    missing field reads as :func:`craft_packet` reads it (0, untagged
    VLAN).

    Raises:
        CraftError: when :func:`craft_packet` would (no wire form).
    """
    dl_type = values.get(FieldName.DL_TYPE, 0)
    nw_proto = values.get(FieldName.NW_PROTO, 0)
    if dl_type not in VALID_ETHERTYPES or (
        dl_type == ETHERTYPE_IPV4 and nw_proto not in VALID_IP_PROTOS
    ):
        raise CraftError(f"cannot craft {dl_type=:#06x}, {nw_proto=}")
    header = {FieldName.IN_PORT: in_port}
    for field in HEADER:
        if field.name is FieldName.IN_PORT or is_excluded(values, field):
            continue
        header[field.name] = values.get(field.name, 0)
    header[FieldName.DL_VLAN] = values.get(FieldName.DL_VLAN, VLAN_NONE)
    if header[FieldName.DL_VLAN] == VLAN_NONE:
        header[FieldName.DL_VLAN_PCP] = 0
    if dl_type == ETHERTYPE_IPV4 and nw_proto == IPPROTO_ICMP:
        header[FieldName.TP_SRC] &= 0xFF
        header[FieldName.TP_DST] &= 0xFF
    return header
