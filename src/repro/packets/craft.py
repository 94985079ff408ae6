"""Abstract probe header -> raw packet (paper §5.2).

The SAT stage produces an assignment over abstract header bits; nothing
forces that assignment to be a *craftable* packet.
:func:`normalize_abstract_header` makes it one, on the header packed
as one int (:meth:`~repro.openflow.match.Match.packed`'s bit layout),
by the paper's two steps:

1. **Limited domains.**  Fields like ``dl_type`` and ``nw_proto`` only
   admit a handful of wire-valid values.  If the SAT solution picked an
   invalid value, it is replaced with a *spare* valid value — one whose
   substitution provably does not change ``Matches(probe, R)`` for any
   rule ``R`` the caller supplies (the §5.2 substitution lemma).  The
   lemma's conclusion is checked against every match that constrains
   the field, rather than assuming rules are exact-or-wildcard on
   these fields.

2. **Conditionally-excluded fields.**  Once ``dl_type`` and ``nw_proto``
   hold valid values they fix the header's *class*, and a plan fixed
   per class clears, with one mask, the fields the class excludes
   (e.g. ``tp_src`` on an ARP packet); the §5.2 elimination lemma
   guarantees this cannot change any well-formed rule's match result.
   The plan also names the values the wire narrows (an ICMP packet has
   one byte of type and one of code), which take a spare value the same
   way, as does an untagged frame's priority.

The same class decides what a caught packet shows of a header:
:func:`wire_visible_bits` projects a packed header with its class's
mask, and :func:`wire_visible_items` is the per-field statement of
that projection; :func:`wire_header` is the projection of a header
that has a wire form, what a switch applies after a rewrite.  After
normalization, :func:`craft_packet` reads the packed header field by
field and assembles real bytes: Ethernet (+VLAN) and then
IPv4/TCP/UDP/ICMP or ARP.
"""

from __future__ import annotations

from struct import Struct
from typing import Iterable, Mapping, Sequence

from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    HEADER,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    VALID_ETHERTYPES,
    VALID_IP_PROTOS,
    VLAN_NONE,
    Field,
    FieldName,
)
from repro.openflow.match import Match
from repro.packets.checksum import sum16


class CraftError(ValueError):
    """Raised when an abstract header cannot become a valid packet."""


def _is_excluded(values: Mapping[FieldName, int], field: Field) -> bool:
    """Is the field conditionally excluded given the parent's value?

    Walks parent links recursively: a field is excluded if its immediate
    parent has an excluding value, or the parent itself is excluded.
    """
    if field.parent is None:
        return False
    parent_field = HEADER.field(field.parent)
    if _is_excluded(values, parent_field):
        return True
    assert field.parent_values is not None
    return values.get(field.parent, 0) not in field.parent_values


def _on_the_wire(dl_type: int, nw_proto: int) -> tuple[FieldName, ...]:
    gates = {FieldName.DL_TYPE: dl_type, FieldName.NW_PROTO: nw_proto}
    return tuple(
        sorted(
            field.name
            for field in HEADER
            if field.name is not FieldName.IN_PORT  # metadata, not content
            and not _is_excluded(gates, field)
        )
    )


#: The fields a header puts on the wire, name-sorted, per header class:
#: exclusion looks at ``dl_type`` and ``nw_proto`` only, and at each only
#: through which valid value, if any (else -1), it holds.
_VISIBLE = {
    (dl_type, nw_proto): _on_the_wire(dl_type, nw_proto)
    for dl_type in (*VALID_ETHERTYPES, -1)
    for nw_proto in (*VALID_IP_PROTOS, -1)
}

#: OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst; only the low
#: byte of each exists on the wire.
_ICMP_TP_MASK = 0xFF


def _bits(names: Iterable[FieldName]) -> int:
    """The packed header's bits of these fields."""
    spans = HEADER.spans
    return sum(spans[name][1] << spans[name][0] for name in names)


#: Where each field's lowest bit sits in the packed header (a MAC's
#: high 16 bits sit 32 above its own): the codec reads and writes a
#: header with these, field by field.
_SHIFT = {name: shift for name, (shift, _) in HEADER.spans.items()}
IN_PORT_SHIFT = _SHIFT[FieldName.IN_PORT]
_DL_SRC_SHIFT = _SHIFT[FieldName.DL_SRC]
_DL_SRC_HI_SHIFT = _DL_SRC_SHIFT + 32
_DL_DST_SHIFT = _SHIFT[FieldName.DL_DST]
_DL_DST_HI_SHIFT = _DL_DST_SHIFT + 32
_DL_TYPE_SHIFT = _SHIFT[FieldName.DL_TYPE]
_DL_VLAN_SHIFT = _SHIFT[FieldName.DL_VLAN]
_DL_VLAN_PCP_SHIFT = _SHIFT[FieldName.DL_VLAN_PCP]
_NW_SRC_SHIFT = _SHIFT[FieldName.NW_SRC]
_NW_DST_SHIFT = _SHIFT[FieldName.NW_DST]
_NW_PROTO_SHIFT = _SHIFT[FieldName.NW_PROTO]
_NW_TOS_SHIFT = _SHIFT[FieldName.NW_TOS]
_TP_SRC_SHIFT = _SHIFT[FieldName.TP_SRC]
_TP_DST_SHIFT = _SHIFT[FieldName.TP_DST]
#: Every packed-header bit but ``in_port``'s, the injection metadata
#: no wire carries.
NOT_IN_PORT = ~_bits([FieldName.IN_PORT])
_PCP_BITS = _bits([FieldName.DL_VLAN_PCP])
_ICMP = (ETHERTYPE_IPV4, IPPROTO_ICMP)
_ICMP_TP = (FieldName.TP_SRC, FieldName.TP_DST)
#: The bits an ICMP packet does not carry: the high byte of tp_src and
#: of tp_dst (type and code are one byte each).
_ICMP_LOST_BITS = sum(
    (HEADER.spans[name][1] & ~_ICMP_TP_MASK) << HEADER.spans[name][0]
    for name in _ICMP_TP
)

#: What a caught packet shows of a header, per class: its visible
#: fields' bits, ICMP type/code narrowed (``in_port`` is metadata).
_VISIBLE_BITS = {
    key: _bits(names) & ~(_ICMP_LOST_BITS if key == _ICMP else 0)
    for key, names in _VISIBLE.items()
}

#: The §5.2 plan of each class a normalized header can take (IPv4 with
#: a valid ``nw_proto``, or ARP, which has none: -1): the bits it keeps,
#: excluded fields cleared, and the fields whose values the wire
#: narrows, each with the domain it narrows them to.
_PLANS: dict[tuple[int, int], tuple[int, tuple]] = {
    (dl_type, nw_proto): (
        _bits([FieldName.IN_PORT, *_VISIBLE[dl_type, nw_proto]]),
        tuple(
            (name, range(_ICMP_TP_MASK + 1))
            for name in _ICMP_TP
            if (dl_type, nw_proto) == _ICMP
        ),
    )
    for dl_type in VALID_ETHERTYPES
    for nw_proto in (VALID_IP_PROTOS if dl_type == ETHERTYPE_IPV4 else (-1,))
}

#: An untagged frame carries no TCI, hence no priority bits.
_UNTAGGED = ((FieldName.DL_VLAN_PCP, range(1)),)


def wire_visible_bits(header: int) -> int:
    """What a caught packet shows of a packed header: the header
    masked to the fields its class puts on the wire, ICMP type/code cut
    to a byte each and an untagged frame's priority cleared.
    ``in_port`` is cleared too.  Two headers project equal exactly when
    their :func:`wire_visible_items` are equal."""
    dl_type = header >> _DL_TYPE_SHIFT & 0xFFFF
    nw_proto = header >> _NW_PROTO_SHIFT & 0xFF
    mask = _VISIBLE_BITS[
        dl_type if dl_type in VALID_ETHERTYPES else -1,
        nw_proto if nw_proto in VALID_IP_PROTOS else -1,
    ]
    if header >> _DL_VLAN_SHIFT & 0xFFF == VLAN_NONE:
        mask &= ~_PCP_BITS
    return header & mask


def wire_visible_items(
    values: Mapping[FieldName, int]
) -> tuple[tuple[FieldName, int], ...]:
    """The header items a craft -> parse roundtrip preserves, sorted.

    Conditionally-excluded fields (``nw_proto`` on an ARP packet,
    ``tp_src`` without a transport protocol, ...) and ``in_port`` never
    appear on the wire, so an observer — Monocle catching its own probe
    — cannot see them; comparing observations must ignore them.  ICMP
    transport fields and an untagged frame's priority are narrowed to
    what the wire carries.  Missing fields are treated as 0.  The
    per-field statement of :func:`wire_visible_bits`, which the monitor
    compares by.
    """
    get = values.get
    dl_type = get(FieldName.DL_TYPE, 0)
    nw_proto = get(FieldName.NW_PROTO, 0)
    visible = _VISIBLE[
        dl_type if dl_type in VALID_ETHERTYPES else -1,
        nw_proto if nw_proto in VALID_IP_PROTOS else -1,
    ]
    wire = {name: get(name, 0) for name in visible}
    if wire[FieldName.DL_VLAN] == VLAN_NONE:
        wire[FieldName.DL_VLAN_PCP] = 0
    if dl_type == ETHERTYPE_IPV4 and nw_proto == IPPROTO_ICMP:
        wire[FieldName.TP_SRC] &= _ICMP_TP_MASK
        wire[FieldName.TP_DST] &= _ICMP_TP_MASK
    return tuple(wire.items())


def wire_header(header: int) -> int:
    """The packed header ``parse_packet(craft_packet(header, p), 0)``
    returns, without going through bytes: the form a packet takes
    between two simulated switches, applied after a rewrite, not on
    every hop.  It is :func:`wire_visible_bits` of a header that has a
    wire form (``in_port`` cleared, ICMP type/code cut to a byte each,
    an untagged frame's priority cleared).

    Raises:
        CraftError: when :func:`craft_packet` would (no wire form).
    """
    dl_type = header >> _DL_TYPE_SHIFT & 0xFFFF
    nw_proto = header >> _NW_PROTO_SHIFT & 0xFF
    if dl_type not in VALID_ETHERTYPES or (
        dl_type == ETHERTYPE_IPV4 and nw_proto not in VALID_IP_PROTOS
    ):
        raise CraftError(f"cannot craft {dl_type=:#06x}, {nw_proto=}")
    return wire_visible_bits(header)


def _substitute(
    header: int,
    name: FieldName,
    domain: Sequence[int],
    matches: Sequence[Match],
) -> int:
    """``header`` with field ``name`` holding a value from ``domain``
    that preserves every match's result (§5.2's spare value): the
    domain's first value that agrees with the current one on every
    constraint."""
    shift, width = HEADER.spans[name]
    value = header >> shift & width
    constraints = []
    for match in matches:
        bits, mask = match.packed()
        mask = mask >> shift & width
        if mask:
            constraints.append((bits >> shift & width, mask))
    for candidate in domain:
        if all(
            ((candidate ^ bits) & mask == 0) == ((value ^ bits) & mask == 0)
            for bits, mask in constraints
        ):
            return header & ~(width << shift) | candidate << shift
    raise CraftError(
        f"no valid substitute for {name}={value:#x}; "
        f"domain {domain} is fully pinned by rules"
    )


def normalize_abstract_header(
    values: int,
    rule_matches: Iterable[Match] = (),
) -> int:
    """Apply the §5.2 normalization steps to a raw SAT solution.

    Args:
        values: the abstract header, packed like
            :meth:`~repro.openflow.match.Match.packed`.
        rule_matches: every match whose result must be preserved — the
            full flow table plus the catching rule.

    Returns:
        A craftable packed header: limited-domain fields hold wire-valid
        values, conditionally-excluded fields are zeroed, and the values
        the wire narrows fit it.

    Raises:
        CraftError: when a field cannot take a value its domain allows
            without changing some match's result.
    """
    matches = list(rule_matches)
    header = values
    # Step 1: limited domains.  dl_type first: it decides whether the
    # header has an nw_proto at all.
    dl_type = header >> _DL_TYPE_SHIFT & 0xFFFF
    if dl_type not in VALID_ETHERTYPES:
        header = _substitute(
            header, FieldName.DL_TYPE, VALID_ETHERTYPES, matches
        )
        dl_type = header >> _DL_TYPE_SHIFT & 0xFFFF
    nw_proto = -1
    if dl_type == ETHERTYPE_IPV4:
        nw_proto = header >> _NW_PROTO_SHIFT & 0xFF
        if nw_proto not in VALID_IP_PROTOS:
            header = _substitute(
                header, FieldName.NW_PROTO, VALID_IP_PROTOS, matches
            )
            nw_proto = header >> _NW_PROTO_SHIFT & 0xFF
    # Step 2: the class's plan zeroes what the class excludes
    # (elimination lemma).
    keep, narrowed = _PLANS[dl_type, nw_proto]
    header &= keep
    # Step 3: values the wire narrows.  A SAT solution using the lost
    # bits would not survive the craft -> parse roundtrip, so they take
    # a representable spare value — the same argument as step 1.
    if header >> _DL_VLAN_SHIFT & 0xFFF == VLAN_NONE:
        narrowed = _UNTAGGED + narrowed
    for name, domain in narrowed:
        shift, width = HEADER.spans[name]
        if header >> shift & width not in domain:
            header = _substitute(header, name, domain, matches)
    return header


# ----- the wire ------------------------------------------------------------
# One precompiled struct per fixed header, packed from integers here and
# read in place (``unpack_from``) by :func:`repro.packets.parse.
# parse_packet`.  A MAC is a 16-bit and a 32-bit half, an IPv4 address one
# word; pad bytes (``x``) are fields always written 0 and never read.

#: dst MAC (hi, lo), src MAC (hi, lo), ethertype — or ETHERTYPE_VLAN.
ETHERNET = Struct("!HIHIH")
#: 802.1Q, after ETHERTYPE_VLAN: TCI (priority, CFI, VLAN id), ethertype.
VLAN_TAG = Struct("!HH")
#: version/IHL, ToS, total length, (ident, fragment), TTL, protocol,
#: header checksum, src, dst.
IPV4 = Struct("!BBH4xBBHII")
#: ports, (seq, ack), data offset, flags, window, checksum, (urgent).
TCP = Struct("!HH8xBBHH2x")
#: ports, length of header and data, checksum.
UDP = Struct("!HHHH")
#: type, code, checksum, (echo-style identifier and sequence).
ICMP = Struct("!BBH4x")
#: htype, ptype, hlen, plen, opcode, sender MAC (hi, lo), sender IP,
#: (target MAC), target IP.
ARP = Struct("!HHBBHHII6xI")

_LOW32 = 0xFFFFFFFF

def craft_packet(header: int, payload: bytes = b"") -> bytes:
    """Serialize a normalized packed header into real packet bytes.

    ``header`` is packed like :meth:`~repro.openflow.match.Match.
    packed`; each field is read with a shift and its width, so none is
    wider than its wire field (a payload too long for a 16-bit length
    raises ``struct.error``).  A ``dl_vlan`` of ``VLAN_NONE`` is an
    untagged frame.

    One pass: each header is packed once, its checksum already in place.
    A checksum complements a sum mod 0xFFFF (:mod:`repro.packets.
    checksum`), so it is added up from the integers about to be packed —
    a 32-bit address counts as itself — plus ``sum16(payload)``; a sum
    holding a non-zero constant is never the all-zero corner and
    complements to ``-total % 0xFFFF``.

    The ``in_port`` bits are injection metadata, not packet content, and
    are ignored here.

    Raises:
        CraftError: if ``dl_type`` (or ``nw_proto`` for IPv4) holds a
            value this library cannot serialize; run
            :func:`normalize_abstract_header` first.
    """
    dl_type = header >> _DL_TYPE_SHIFT & 0xFFFF
    src_hi = header >> _DL_SRC_HI_SHIFT & 0xFFFF
    src_lo = header >> _DL_SRC_SHIFT & _LOW32
    nw_src = header >> _NW_SRC_SHIFT & _LOW32
    nw_dst = header >> _NW_DST_SHIFT & _LOW32
    if dl_type == ETHERTYPE_IPV4:
        nw_proto = header >> _NW_PROTO_SHIFT & 0xFF
        tp_src = header >> _TP_SRC_SHIFT & 0xFFFF
        tp_dst = header >> _TP_DST_SHIFT & 0xFFFF
        # What the IPv4 header and the TCP/UDP pseudo-header both sum.
        pseudo = nw_src + nw_dst + nw_proto
        if nw_proto == IPPROTO_TCP:
            length = TCP.size + len(payload)
            # No options (data offset 5 words), ACK (keeps middleboxes
            # calm), a full window: the words 0x5010 and 0xFFFF.
            total = pseudo + length + tp_src + tp_dst + 0x5010 + 0xFFFF
            total += sum16(payload)
            l4 = TCP.pack(tp_src, tp_dst, 0x50, 0x10, 0xFFFF, -total % 0xFFFF)
        elif nw_proto == IPPROTO_UDP:
            length = UDP.size + len(payload)
            total = pseudo + 2 * length + tp_src + tp_dst + sum16(payload)
            # RFC 768: a zero checksum means "absent", so 0 goes as 0xFFFF.
            l4 = UDP.pack(tp_src, tp_dst, length, -total % 0xFFFF or 0xFFFF)
        elif nw_proto == IPPROTO_ICMP:
            # OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst.
            tp_src &= _ICMP_TP_MASK
            tp_dst &= _ICMP_TP_MASK
            length = ICMP.size + len(payload)
            # Type 0, code 0 over zeros: the one sum that can be all zero.
            total = (tp_src << 8 | tp_dst) + sum16(payload)
            checksum = -total % 0xFFFF if total else 0xFFFF
            l4 = ICMP.pack(tp_src, tp_dst, checksum)
        else:
            raise CraftError(f"cannot craft nw_proto={nw_proto}")
        # nw_tos occupies the DSCP bits (upper 6) of the ToS byte.
        tos = (header >> _NW_TOS_SHIFT & 0x3F) << 2
        length += IPV4.size
        # Version 4, IHL 5 (no options), TTL 64: the high bytes 0x45, 0x40.
        total = 0x4500 + tos + length + 0x4000 + pseudo
        l3 = IPV4.pack(
            0x45, tos, length, 64, nw_proto, -total % 0xFFFF, nw_src, nw_dst
        )
    elif dl_type == ETHERTYPE_ARP:
        # A request (opcode 1) for IPv4 over Ethernet (htype 1, 6- and
        # 4-byte addresses) from the frame's own source.
        l3 = ARP.pack(
            1, ETHERTYPE_IPV4, 6, 4, 1, src_hi, src_lo, nw_src, nw_dst
        )
        l4 = b""
    else:
        raise CraftError(f"cannot craft dl_type={dl_type:#06x}")

    dl_vlan = header >> _DL_VLAN_SHIFT & 0xFFF
    tag = b""
    if dl_vlan != VLAN_NONE:
        tci = (header >> _DL_VLAN_PCP_SHIFT & 0x7) << 13 | dl_vlan
        tag = VLAN_TAG.pack(tci, dl_type)
        dl_type = ETHERTYPE_VLAN
    link = ETHERNET.pack(
        header >> _DL_DST_HI_SHIFT & 0xFFFF,
        header >> _DL_DST_SHIFT & _LOW32,
        src_hi,
        src_lo,
        dl_type,
    )
    return b"".join((link, tag, l3, l4, payload))
