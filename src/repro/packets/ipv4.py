"""IPv4 addresses as text: dotted quad <-> the 32-bit int of
``nw_src`` / ``nw_dst``."""

from __future__ import annotations


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
