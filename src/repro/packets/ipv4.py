"""IPv4 header encode/decode with checksum handling."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.packets.checksum import internet_checksum

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


def ip_to_str(addr: int) -> str:
    """32-bit int -> dotted quad."""
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def str_to_ip(text: str) -> int:
    """Dotted quad -> 32-bit int."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address: {text!r}")
    addr = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 octet in {text!r}")
        addr = (addr << 8) | octet
    return addr


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
