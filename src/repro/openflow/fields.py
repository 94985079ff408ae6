"""The OpenFlow 1.0 match fields and the abstract header layout.

Monocle formulates probe constraints over an *abstract packet view*: the
packet is a flat vector of bits obtained by concatenating the OpenFlow 1.0
match fields in a fixed order (paper §5.1).  This module is the single
source of truth for that layout — the matcher, the SAT encoder and the
packet crafting library all index bits through :data:`HEADER`.

Field semantics beyond raw bits (which values are valid, which fields are
conditionally included) live here too, because both probe decoding
(§5.2) and rule validation need them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


class FieldName(str, enum.Enum):
    """Names of the OpenFlow 1.0 12-tuple match fields."""

    IN_PORT = "in_port"
    DL_SRC = "dl_src"
    DL_DST = "dl_dst"
    DL_TYPE = "dl_type"
    DL_VLAN = "dl_vlan"
    DL_VLAN_PCP = "dl_vlan_pcp"
    NW_SRC = "nw_src"
    NW_DST = "nw_dst"
    NW_PROTO = "nw_proto"
    NW_TOS = "nw_tos"
    TP_SRC = "tp_src"
    TP_DST = "tp_dst"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Ethertypes and IP protocol numbers the reproduction understands.  These
# are the "limited domains" of §5.2: a raw packet can only be crafted if
# dl_type / nw_proto take one of these values.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
VALID_ETHERTYPES = (ETHERTYPE_IPV4, ETHERTYPE_ARP)

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17
VALID_IP_PROTOS = (IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP)

# dl_vlan value meaning "no VLAN tag present" (OpenFlow 1.0 OFP_VLAN_NONE
# is 0xffff; we model the 12-bit tag with 0xfff as the untagged marker).
VLAN_NONE = 0xFFF


@dataclass(frozen=True)
class Field:
    """One abstract header field.

    Attributes:
        name: the field's :class:`FieldName`.
        width: bit width of the field in the abstract header.
        offset: bit offset of the field's most significant bit within the
            abstract header (bit 0 of the header is the MSB of the first
            field, mirroring the paper's ``p1 p2 ... pn`` notation).
        valid_values: optional tuple of the only values a *real* packet
            may carry (the limited domain); None means any value is fine.
        parent: field that gates this field's presence (e.g. ``tp_src``
            is only present when ``nw_proto`` is TCP/UDP/ICMP), or None.
        parent_values: values of ``parent`` for which this field is
            present in a real packet.
    """

    name: FieldName
    width: int
    offset: int
    valid_values: tuple[int, ...] | None = None
    parent: FieldName | None = None
    parent_values: tuple[int, ...] | None = None

    @property
    def max_value(self) -> int:
        """Largest representable value for this field."""
        return (1 << self.width) - 1

    def contains(self, value: int) -> bool:
        """Whether ``value`` fits in the field's bit width."""
        return 0 <= value <= self.max_value


class HeaderLayout:
    """The full abstract header: ordered fields plus offset bookkeeping."""

    def __init__(self, fields: list[Field]) -> None:
        self._fields = fields
        self._by_name = {f.name: f for f in fields}
        if len(self._by_name) != len(fields):
            raise ValueError("duplicate field in header layout")
        self.total_bits = sum(f.width for f in fields)
        #: Where each field sits in the packed header (``Match.packed``,
        #: ``pack_header``), in layout order: name -> (shift, mask).
        self.spans: dict[FieldName, tuple[int, int]] = {}
        shift = self.total_bits
        for f in fields:
            shift -= f.width
            self.spans[f.name] = (shift, f.max_value)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def field(self, name: FieldName) -> Field:
        """Look up a field by name."""
        return self._by_name[name]

    def names(self) -> list[FieldName]:
        """Field names in layout order."""
        return [f.name for f in self._fields]

    def unpack(self, header: int) -> dict[FieldName, int]:
        """A packed header's fields (the inverse of
        :func:`~repro.openflow.table.pack_header`): every field, in
        layout order."""
        if header >> self.total_bits:
            raise ValueError(f"header value too wide: {header:#x}")
        return {
            name: header >> shift & mask
            for name, (shift, mask) in self.spans.items()
        }


def _build_layout() -> HeaderLayout:
    """Construct the canonical OpenFlow 1.0 abstract header layout."""
    spec: list[tuple[FieldName, int, dict]] = [
        (FieldName.IN_PORT, 16, {}),
        (FieldName.DL_SRC, 48, {}),
        (FieldName.DL_DST, 48, {}),
        (FieldName.DL_TYPE, 16, {"valid_values": VALID_ETHERTYPES}),
        (FieldName.DL_VLAN, 12, {}),
        (FieldName.DL_VLAN_PCP, 3, {}),
        (
            FieldName.NW_SRC,
            32,
            {
                "parent": FieldName.DL_TYPE,
                "parent_values": (ETHERTYPE_IPV4, ETHERTYPE_ARP),
            },
        ),
        (
            FieldName.NW_DST,
            32,
            {
                "parent": FieldName.DL_TYPE,
                "parent_values": (ETHERTYPE_IPV4, ETHERTYPE_ARP),
            },
        ),
        (
            FieldName.NW_PROTO,
            8,
            {
                "valid_values": VALID_IP_PROTOS,
                "parent": FieldName.DL_TYPE,
                "parent_values": (ETHERTYPE_IPV4,),
            },
        ),
        (
            FieldName.NW_TOS,
            6,
            {
                "parent": FieldName.DL_TYPE,
                "parent_values": (ETHERTYPE_IPV4,),
            },
        ),
        (
            FieldName.TP_SRC,
            16,
            {
                "parent": FieldName.NW_PROTO,
                "parent_values": (IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ICMP),
            },
        ),
        (
            FieldName.TP_DST,
            16,
            {
                "parent": FieldName.NW_PROTO,
                "parent_values": (IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ICMP),
            },
        ),
    ]
    fields = []
    offset = 0
    for name, width, extra in spec:
        fields.append(Field(name=name, width=width, offset=offset, **extra))
        offset += width
    return HeaderLayout(fields)


#: The canonical abstract header layout shared by the whole library.
HEADER: HeaderLayout = _build_layout()

#: Total abstract header width in bits (253 for the OF 1.0 12-tuple).
HEADER_BITS: int = HEADER.total_bits
