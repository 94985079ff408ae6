"""TCP / UDP / ICMP header encode and decode.

Only the fields OpenFlow 1.0 can match on need to survive the round trip:
``tp_src`` and ``tp_dst`` (mapped to ICMP type/code for ICMP, per the
spec).  Checksums are computed with the IPv4 pseudo-header where the
protocol requires it.
"""

from __future__ import annotations

import struct

from repro.packets.checksum import internet_checksum

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
