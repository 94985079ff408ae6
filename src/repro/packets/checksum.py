"""The Internet checksum (RFC 1071)."""

from __future__ import annotations

import struct


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, complemented.

    Odd-length input is zero-padded on the right, per RFC 1071.
    """
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF
