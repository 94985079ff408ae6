"""Ethernet II framing with optional 802.1Q VLAN tag."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.openflow.fields import ETHERTYPE_VLAN, VLAN_NONE

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
        ethertype = struct.unpack("!H", frame[16:18])[0]
        offset += VLAN_TAG_LEN
    header = EthernetHeader(
        dst=dst, src=src, ethertype=ethertype, vlan=vlan, vlan_pcp=vlan_pcp
    )
    return header, frame[offset:]
