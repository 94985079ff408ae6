"""Abstract probe header -> raw packet (paper §5.2).

The SAT stage produces an assignment over abstract header bits; nothing
forces that assignment to be a *craftable* packet.  Two normalization
steps from the paper run before serialization:

1. **Limited domains.**  Fields like ``dl_type`` and ``nw_proto`` only
   admit a handful of wire-valid values.  If the SAT solution picked an
   invalid value, it is replaced with a *spare* valid value — one whose
   substitution provably does not change ``Matches(probe, R)`` for any
   rule ``R`` the caller supplies (the §5.2 substitution lemma).  Rather
   than assuming rules are exact-or-wildcard on these fields, we check
   the lemma's conclusion directly against every rule constraint.

2. **Conditionally-excluded fields.**  Fields whose parent field takes a
   value that excludes them (e.g. ``tp_src`` when ``nw_proto`` is not
   TCP/UDP/ICMP) are zeroed; the §5.2 elimination lemma guarantees this
   cannot change any well-formed rule's match result.

After normalization, :func:`craft_packet` assembles real bytes:
Ethernet (+VLAN) and then IPv4/TCP/UDP/ICMP or ARP.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
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
from repro.openflow.match import FieldMatch, Match
from repro.packets import arp, ethernet, ipv4, transport


class CraftError(ValueError):
    """Raised when an abstract header cannot become a valid packet."""


def _substitution_safe(
    candidate: int, original: int, constraints: Iterable[FieldMatch]
) -> bool:
    """Does swapping original->candidate preserve every field constraint?"""
    for fm in constraints:
        if fm.matches(candidate) != fm.matches(original):
            return False
    return True


def _field_constraints(
    matches: Iterable[Match], name: FieldName
) -> list[FieldMatch]:
    """Collect the non-wildcard constraints on ``name`` across matches."""
    out = []
    for match in matches:
        fm = match.constraint(name)
        if not fm.is_wildcard():
            out.append(fm)
    return out


def _fix_limited_domain(
    name: FieldName,
    value: int,
    domain: Sequence[int],
    matches: list[Match],
) -> int:
    """Return a value from ``domain`` for the field, preserving all matches.

    Implements the spare-value substitution of §5.2.  If the current
    value is already in the domain it is kept; otherwise each domain
    value is tried in order and the first one that provably preserves
    every constraint is chosen.
    """
    if value in domain:
        return value
    constraints = _field_constraints(matches, name)
    for candidate in domain:
        if _substitution_safe(candidate, value, constraints):
            return candidate
    raise CraftError(
        f"no valid substitute for {name}={value:#x}; "
        f"domain {domain} is fully pinned by rules"
    )


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


def _wire_values(
    values: Mapping[FieldName, int], no_vlan: int
) -> dict[FieldName, int]:
    """The fields on the wire, name-sorted, with the values it keeps:
    an ICMP packet has one byte for each of ``tp_src``/``tp_dst``
    (type/code), an untagged frame no TCI, hence no priority bits."""
    get = values.get
    dl_type = get(FieldName.DL_TYPE, 0)
    nw_proto = get(FieldName.NW_PROTO, 0)
    visible = _VISIBLE[
        dl_type if dl_type in VALID_ETHERTYPES else -1,
        nw_proto if nw_proto in VALID_IP_PROTOS else -1,
    ]
    wire = {name: get(name, 0) for name in visible}
    wire[FieldName.DL_VLAN] = get(FieldName.DL_VLAN, no_vlan)
    if wire[FieldName.DL_VLAN] == VLAN_NONE:
        wire[FieldName.DL_VLAN_PCP] = 0
    if dl_type == ETHERTYPE_IPV4 and nw_proto == IPPROTO_ICMP:
        wire[FieldName.TP_SRC] &= _ICMP_TP_MASK
        wire[FieldName.TP_DST] &= _ICMP_TP_MASK
    return wire


def wire_visible_items(
    values: Mapping[FieldName, int]
) -> tuple[tuple[FieldName, int], ...]:
    """The header items a craft -> parse roundtrip preserves, sorted.

    Conditionally-excluded fields (``nw_proto`` on an ARP packet,
    ``tp_src`` without a transport protocol, ...) and ``in_port`` never
    appear on the wire, so an observer — Monocle catching its own probe
    — cannot see them; comparing observations must ignore them.  ICMP
    transport fields and an untagged frame's priority are narrowed to
    what the wire carries.  Missing fields are treated as 0, mirroring
    :func:`normalize_abstract_header`.
    """
    return tuple(_wire_values(values, no_vlan=0).items())


def wire_header(
    values: Mapping[FieldName, int], in_port: int = 0
) -> dict[FieldName, int]:
    """The header ``parse_packet(craft_packet(values, p), in_port)``
    returns, without going through bytes: the form a packet takes
    between two simulated switches.  Each value must be within its
    field's width; a missing field reads as :func:`craft_packet` reads
    it (0, and untagged for ``dl_vlan``).

    Raises:
        CraftError: when :func:`craft_packet` would (no wire form).
    """
    dl_type = values.get(FieldName.DL_TYPE, 0)
    nw_proto = values.get(FieldName.NW_PROTO, 0)
    if dl_type not in VALID_ETHERTYPES or (
        dl_type == ETHERTYPE_IPV4 and nw_proto not in VALID_IP_PROTOS
    ):
        raise CraftError(f"cannot craft {dl_type=:#06x}, {nw_proto=}")
    header = _wire_values(values, no_vlan=VLAN_NONE)
    header[FieldName.IN_PORT] = in_port
    return header


def normalize_abstract_header(
    values: Mapping[FieldName, int],
    rule_matches: Iterable[Match] = (),
) -> dict[FieldName, int]:
    """Apply the §5.2 normalization steps to a raw SAT solution.

    Args:
        values: abstract header values (missing fields treated as 0).
        rule_matches: every match whose result must be preserved — the
            full flow table plus the catching rule.

    Returns:
        A craftable header: limited-domain fields hold wire-valid values
        and conditionally-excluded fields are zeroed.

    Raises:
        CraftError: when a limited-domain field cannot be fixed.
    """
    matches = list(rule_matches)
    normalized = {field.name: values.get(field.name, 0) for field in HEADER}

    # Step 1: limited-domain substitution, parents before children so the
    # exclusion decisions below see final parent values.
    for field in HEADER:
        if field.valid_values is None:
            continue
        if _is_excluded(normalized, field):
            continue  # handled by step 2
        normalized[field.name] = _fix_limited_domain(
            field.name, normalized[field.name], field.valid_values, matches
        )

    # Step 2: zero conditionally-excluded fields (elimination lemma).
    for field in HEADER:
        if field.parent is not None and _is_excluded(normalized, field):
            normalized[field.name] = 0

    # Step 3: values the wire narrows.  ICMP keeps one byte of
    # tp_src/tp_dst (type/code) and an untagged frame carries no
    # priority bits.  A SAT solution using the lost bits would not
    # survive the craft -> parse roundtrip, so substitute a
    # representable value that provably preserves every rule's match
    # result — the same spare-value argument as step 1.
    narrowed: list[tuple[FieldName, range]] = []
    if normalized[FieldName.DL_VLAN] == VLAN_NONE:
        narrowed.append((FieldName.DL_VLAN_PCP, range(1)))
    if normalized[FieldName.NW_PROTO] == IPPROTO_ICMP and not _is_excluded(
        normalized, HEADER.field(FieldName.TP_SRC)
    ):
        domain = range(_ICMP_TP_MASK + 1)
        narrowed += [(FieldName.TP_SRC, domain), (FieldName.TP_DST, domain)]
    for name, domain in narrowed:
        normalized[name] = _fix_limited_domain(
            name, normalized[name], domain, matches
        )

    return normalized


def craft_packet(
    values: Mapping[FieldName, int],
    payload: bytes = b"",
) -> bytes:
    """Serialize a normalized abstract header into real packet bytes.

    The ``in_port`` field is injection metadata, not packet content, and
    is ignored here.

    Raises:
        CraftError: if ``dl_type`` (or ``nw_proto`` for IPv4) holds a
            value this library cannot serialize; run
            :func:`normalize_abstract_header` first.
    """
    dl_type = values.get(FieldName.DL_TYPE, 0)
    eth_header = ethernet.EthernetHeader(
        dst=values.get(FieldName.DL_DST, 0),
        src=values.get(FieldName.DL_SRC, 0),
        ethertype=dl_type,
        vlan=values.get(FieldName.DL_VLAN, VLAN_NONE),
        vlan_pcp=values.get(FieldName.DL_VLAN_PCP, 0),
    )

    if dl_type == ETHERTYPE_IPV4:
        inner = _craft_ipv4(values, payload)
    elif dl_type == ETHERTYPE_ARP:
        inner = arp.encode_arp(
            arp.ArpPacket(
                opcode=arp.OP_REQUEST,
                sender_mac=values.get(FieldName.DL_SRC, 0),
                sender_ip=values.get(FieldName.NW_SRC, 0),
                target_mac=0,
                target_ip=values.get(FieldName.NW_DST, 0),
            )
        ) + payload
    else:
        raise CraftError(f"cannot craft dl_type={dl_type:#06x}")
    return ethernet.encode_ethernet(eth_header, inner)


def _craft_ipv4(values: Mapping[FieldName, int], payload: bytes) -> bytes:
    nw_src = values.get(FieldName.NW_SRC, 0)
    nw_dst = values.get(FieldName.NW_DST, 0)
    nw_proto = values.get(FieldName.NW_PROTO, 0)
    tp_src = values.get(FieldName.TP_SRC, 0)
    tp_dst = values.get(FieldName.TP_DST, 0)

    if nw_proto == IPPROTO_TCP:
        inner = transport.encode_tcp(tp_src, tp_dst, payload, nw_src, nw_dst)
    elif nw_proto == IPPROTO_UDP:
        inner = transport.encode_udp(tp_src, tp_dst, payload, nw_src, nw_dst)
    elif nw_proto == IPPROTO_ICMP:
        # OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst.
        inner = transport.encode_icmp(tp_src & 0xFF, tp_dst & 0xFF, payload)
    else:
        raise CraftError(f"cannot craft nw_proto={nw_proto}")

    ip_header = ipv4.Ipv4Header(
        src=nw_src,
        dst=nw_dst,
        proto=nw_proto,
        tos=values.get(FieldName.NW_TOS, 0),
    )
    return ipv4.encode_ipv4(ip_header, inner)
