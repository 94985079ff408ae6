"""The Internet checksum (RFC 1071)."""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, complemented.

    Odd-length input is zero-padded on the right, per RFC 1071.
    """
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF
