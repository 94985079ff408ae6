"""Header dicts at the edges of the packed data plane, for tests.

The codec (``craft_packet`` / ``parse_packet``), the flow table's
``lookup`` / ``process`` and a switch's frames take and give a header
packed as one int (:meth:`~repro.openflow.match.Match.packed`'s
layout).  Tests state headers as dicts; these pack one the way the
dict codec read it — a missing field 0, a missing ``dl_vlan``
``VLAN_NONE`` (untagged) — and unpack what comes back.
"""

from __future__ import annotations

from typing import Mapping

from repro.openflow.fields import HEADER, VLAN_NONE, FieldName
from repro.openflow.table import pack_header
from repro.packets.craft import craft_packet
from repro.packets.parse import parse_packet


def packed(values: Mapping[FieldName, int]) -> int:
    """``values`` packed as a frame's header: a missing ``dl_vlan`` is
    untagged.  A value outside its field's width raises ``ValueError``
    (``pack_header`` would cut it)."""
    for name, value in values.items():
        field = HEADER.field(name)
        if not field.contains(value):
            raise ValueError(f"{name}={value:#x} exceeds width {field.width}")
    return pack_header({FieldName.DL_VLAN: VLAN_NONE, **values})


def craft(values: Mapping[FieldName, int], payload: bytes = b"") -> bytes:
    """``craft_packet`` of a header dict."""
    return craft_packet(packed(values), payload)


def parse(raw: bytes, in_port: int = 0) -> tuple[dict[FieldName, int], bytes]:
    """``parse_packet``, its header unpacked: every field."""
    header, payload = parse_packet(raw, in_port)
    return HEADER.unpack(header), payload

