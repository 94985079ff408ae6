"""Raw packet bytes -> packed abstract header (the inverse of crafting).

A switch parses a PacketOut payload, and Monocle a caught probe's
PacketIn payload, into the header packed as one int
(:meth:`~repro.openflow.match.Match.packed`'s layout), so the flow
table and the monitor compare it with no per-field step; the probe
metadata is recovered from the payload.
"""

from __future__ import annotations

from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    VLAN_NONE,
)
from repro.packets.checksum import sum16
from repro.packets.craft import (
    _DL_DST_HI_SHIFT,
    _DL_DST_SHIFT,
    _DL_SRC_HI_SHIFT,
    _DL_SRC_SHIFT,
    _DL_TYPE_SHIFT,
    _DL_VLAN_PCP_SHIFT,
    _DL_VLAN_SHIFT,
    _NW_DST_SHIFT,
    _NW_PROTO_SHIFT,
    _NW_SRC_SHIFT,
    _NW_TOS_SHIFT,
    _TP_SRC_SHIFT,
    _TP_DST_SHIFT,
    ARP,
    ETHERNET,
    ICMP,
    IN_PORT_SHIFT,
    IPV4,
    TCP,
    UDP,
    VLAN_TAG,
)

# Plain ints: a frame's lengths are compared a dozen times per parse.
_ETHERNET_LEN = ETHERNET.size
_VLAN_TAG_LEN = VLAN_TAG.size
_ARP_LEN = ARP.size
_IPV4_LEN = IPV4.size
_TCP_LEN = TCP.size
_UDP_LEN = UDP.size
_ICMP_LEN = ICMP.size

#: An untagged frame's VLAN bits.
_UNTAGGED = VLAN_NONE << _DL_VLAN_SHIFT


class ParseError(ValueError):
    """Raised when packet bytes cannot be parsed."""


def parse_packet(raw: bytes, in_port: int = 0) -> tuple[int, bytes]:
    """Parse packet bytes into (packed header, payload).

    The header is built as one int from the values the structs unpack,
    laid out like :meth:`~repro.openflow.match.Match.packed`: what
    :func:`~repro.packets.craft.craft_packet` reads, ``in_port`` ORed
    in, every field the frame's class does not carry 0.

    One pass: each header is read in place with ``unpack_from``; the
    only slices made are the IPv4 header being verified and the payload
    returned.  A length field is a claim checked against the bytes
    present, and an IPv4 datagram ends at its ``total_length``: what
    follows is link padding, not payload.

    Args:
        raw: the packet bytes, starting at the Ethernet header.
        in_port: the port the packet arrived on (packed into the header).

    Raises:
        ParseError: on malformed or unsupported packets.
    """
    end = len(raw)
    if end < _ETHERNET_LEN:
        raise ParseError(f"frame too short for Ethernet: {end} bytes")
    dst_hi, dst_lo, src_hi, src_lo, dl_type = ETHERNET.unpack_from(raw)
    offset = _ETHERNET_LEN
    if dl_type == ETHERTYPE_VLAN:
        if end < offset + _VLAN_TAG_LEN:
            raise ParseError("frame too short for VLAN tag")
        tci, dl_type = VLAN_TAG.unpack_from(raw, offset)
        offset += _VLAN_TAG_LEN
        dl_vlan = tci & 0xFFF
        if dl_vlan == VLAN_NONE:
            # Reserved by 802.1Q, and the header model's "untagged".
            raise ParseError("reserved VLAN id 0xfff")
        tag = dl_vlan << _DL_VLAN_SHIFT | tci >> 13 << _DL_VLAN_PCP_SHIFT
    else:
        tag = _UNTAGGED
    link = (
        in_port << IN_PORT_SHIFT
        | src_hi << _DL_SRC_HI_SHIFT
        | src_lo << _DL_SRC_SHIFT
        | dst_hi << _DL_DST_HI_SHIFT
        | dst_lo << _DL_DST_SHIFT
        | dl_type << _DL_TYPE_SHIFT
        | tag
    )
    size = end - offset

    if dl_type == ETHERTYPE_ARP:
        if size < _ARP_LEN:
            raise ParseError(f"too short for ARP: {size} bytes")
        htype, ptype, hlen, plen, _, _, _, nw_src, nw_dst = ARP.unpack_from(
            raw, offset
        )
        if htype != 1 or ptype != ETHERTYPE_IPV4:
            raise ParseError(
                f"unsupported ARP htype/ptype: {htype}/{ptype:#x}"
            )
        if hlen != 6 or plen != 4:
            raise ParseError(f"unsupported ARP address lengths: {hlen}/{plen}")
        header = link | nw_src << _NW_SRC_SHIFT | nw_dst << _NW_DST_SHIFT
        return header, raw[offset + _ARP_LEN :]
    if dl_type != ETHERTYPE_IPV4:
        raise ParseError(f"unsupported ethertype {dl_type:#06x}")

    if size < _IPV4_LEN:
        raise ParseError(f"too short for IPv4: {size} bytes")
    version_ihl, tos, total_length, _, nw_proto, _, nw_src, nw_dst = (
        IPV4.unpack_from(raw, offset)
    )
    if version_ihl >> 4 != 4:
        raise ParseError(f"not IPv4: version={version_ihl >> 4}")
    ihl = (version_ihl & 0xF) * 4  # above 20: options, skipped
    if ihl < _IPV4_LEN or size < ihl:
        raise ParseError(f"bad IHL: {ihl}")
    if sum16(raw[offset : offset + ihl]) != 0xFFFF:
        raise ParseError("IPv4 header checksum mismatch")
    if not ihl <= total_length <= size:
        raise ParseError(f"bad IPv4 total length: {total_length}")
    end = offset + total_length
    offset += ihl
    size = end - offset

    if nw_proto == IPPROTO_TCP:
        if size < _TCP_LEN:
            raise ParseError(f"too short for TCP: {size} bytes")
        tp_src, tp_dst, data_offset, _, _, _ = TCP.unpack_from(raw, offset)
        data_offset = (data_offset >> 4) * 4
        if data_offset < _TCP_LEN or size < data_offset:
            raise ParseError(f"bad TCP data offset: {data_offset}")
        offset += data_offset
    elif nw_proto == IPPROTO_UDP:
        if size < _UDP_LEN:
            raise ParseError(f"too short for UDP: {size} bytes")
        tp_src, tp_dst, length, _ = UDP.unpack_from(raw, offset)
        if not _UDP_LEN <= length <= size:
            raise ParseError(f"bad UDP length: {length}")
        end = offset + length
        offset += _UDP_LEN
    elif nw_proto == IPPROTO_ICMP:
        if size < _ICMP_LEN:
            raise ParseError(f"too short for ICMP: {size} bytes")
        # OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst.
        tp_src, tp_dst, _ = ICMP.unpack_from(raw, offset)
        offset += _ICMP_LEN
    else:
        raise ParseError(f"unsupported nw_proto {nw_proto}")
    header = (
        link
        | nw_src << _NW_SRC_SHIFT
        | nw_dst << _NW_DST_SHIFT
        | nw_proto << _NW_PROTO_SHIFT
        | tos >> 2 << _NW_TOS_SHIFT
        | tp_src << _TP_SRC_SHIFT
        | tp_dst << _TP_DST_SHIFT
    )
    return header, raw[offset:end]
