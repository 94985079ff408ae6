"""Raw packet bytes -> abstract header (the inverse of crafting).

Monocle uses this when a probe is caught: the PacketIn payload is parsed
back into abstract header values so the monitor can check which rewrites
were applied, and the probe metadata is recovered from the payload.
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
    FieldName,
)
from repro.packets.checksum import sum16
from repro.packets.craft import ARP, ETHERNET, ICMP, IPV4, TCP, UDP, VLAN_TAG

# Plain ints: a frame's lengths are compared a dozen times per parse.
_ETHERNET_LEN = ETHERNET.size
_VLAN_TAG_LEN = VLAN_TAG.size
_ARP_LEN = ARP.size
_IPV4_LEN = IPV4.size
_TCP_LEN = TCP.size
_UDP_LEN = UDP.size
_ICMP_LEN = ICMP.size

_IN_PORT = FieldName.IN_PORT
_DL_SRC = FieldName.DL_SRC
_DL_DST = FieldName.DL_DST
_DL_TYPE = FieldName.DL_TYPE
_DL_VLAN = FieldName.DL_VLAN
_DL_VLAN_PCP = FieldName.DL_VLAN_PCP
_NW_SRC = FieldName.NW_SRC
_NW_DST = FieldName.NW_DST
_NW_PROTO = FieldName.NW_PROTO
_NW_TOS = FieldName.NW_TOS
_TP_SRC = FieldName.TP_SRC
_TP_DST = FieldName.TP_DST


class ParseError(ValueError):
    """Raised when packet bytes cannot be parsed."""


def parse_packet(
    raw: bytes, in_port: int = 0
) -> tuple[dict[FieldName, int], bytes]:
    """Parse packet bytes into (abstract header values, payload).

    One pass: each header is read in place with ``unpack_from``; the
    only slices made are the IPv4 header being verified and the payload
    returned.  A length field is a claim checked against the bytes
    present, and an IPv4 datagram ends at its ``total_length``: what
    follows is link padding, not payload.

    Args:
        raw: the packet bytes, starting at the Ethernet header.
        in_port: the port the packet arrived on (copied into the header).

    Raises:
        ParseError: on malformed or unsupported packets.
    """
    end = len(raw)
    if end < _ETHERNET_LEN:
        raise ParseError(f"frame too short for Ethernet: {end} bytes")
    dst_hi, dst_lo, src_hi, src_lo, dl_type = ETHERNET.unpack_from(raw)
    offset = _ETHERNET_LEN
    dl_vlan = VLAN_NONE
    dl_vlan_pcp = 0
    if dl_type == ETHERTYPE_VLAN:
        if end < offset + _VLAN_TAG_LEN:
            raise ParseError("frame too short for VLAN tag")
        tci, dl_type = VLAN_TAG.unpack_from(raw, offset)
        offset += _VLAN_TAG_LEN
        dl_vlan = tci & 0xFFF
        if dl_vlan == VLAN_NONE:
            # Reserved by 802.1Q, and the header model's "untagged".
            raise ParseError("reserved VLAN id 0xfff")
        dl_vlan_pcp = tci >> 13
    values = {
        _IN_PORT: in_port,
        _DL_SRC: src_hi << 32 | src_lo,
        _DL_DST: dst_hi << 32 | dst_lo,
        _DL_TYPE: dl_type,
        _DL_VLAN: dl_vlan,
        _DL_VLAN_PCP: dl_vlan_pcp,
    }
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
        values[_NW_SRC] = nw_src
        values[_NW_DST] = nw_dst
        return values, raw[offset + _ARP_LEN :]
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
    values[_NW_SRC] = nw_src
    values[_NW_DST] = nw_dst
    values[_NW_PROTO] = nw_proto
    values[_NW_TOS] = tos >> 2
    values[_TP_SRC] = tp_src
    values[_TP_DST] = tp_dst
    return values, raw[offset:end]
