"""The Internet checksum (RFC 1071), as arithmetic.

RFC 1071 §2(A)-(C): the checksum is a one's-complement sum of 16-bit
words, i.e. a sum mod 2**16 - 1, so it may be taken over integers of
any width and in any order.  Because 2**16 = 1 (mod 0xFFFF), the bytes
read as *one* big integer are congruent to the sum of their words —
no word loop — and a codec that knows a header's fields as integers
can add them without serializing first (:mod:`repro.packets.craft`).

The one corner: one's-complement arithmetic has two zeros.  A word sum
folds to 0 only when every word is 0; a non-zero multiple of 0xFFFF
folds to 0xFFFF, where plain ``% 0xFFFF`` would say 0.
"""

from __future__ import annotations


def sum16(data: bytes) -> int:
    """The folded one's-complement sum of ``data``'s 16-bit words.

    Odd-length input is zero-padded on the right.  In ``[0, 0xFFFF]``:
    0 for all-zero (or empty) data only, 0xFFFF for any other data
    whose words sum to a multiple of 0xFFFF — so data that embeds its
    own checksum verifies as ``sum16(data) == 0xFFFF``.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    return total % 0xFFFF or (0xFFFF if total else 0)
