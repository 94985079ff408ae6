"""The per-field §5.2 normalization, kept as the reference for the
packed one.

Until a probe header stayed one packed int from the solver's model to
the caught packet (:func:`repro.packets.craft.normalize_abstract_header`
follows a plan fixed per ``(dl_type, nw_proto)`` class), this was how a
raw SAT solution became craftable: a dict walked field by field, every
exclusion decided by following parent links, every spare value chosen
against the constraints collected from every match.  It moved here
unchanged but for reading a match's constraints from ``Match.fields``
(``Match.constraint`` went with it), the way ``packet_reference.py``
keeps the layered codec:
``tests/test_packed_header.py`` holds the packed normalization to it,
header for header and ``CraftError`` for ``CraftError``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.openflow.fields import (
    HEADER,
    IPPROTO_ICMP,
    VLAN_NONE,
    Field,
    FieldName,
)
from repro.openflow.match import FieldMatch, Match
from repro.packets.craft import CraftError

#: OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst; only the low
#: byte of each exists on the wire.
ICMP_TP_MASK = 0xFF


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
        fm = match.fields.get(name)  # a Match keeps no wildcard
        if fm is not None and not fm.is_wildcard():
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


def is_excluded(values: Mapping[FieldName, int], field: Field) -> bool:
    """Is the field conditionally excluded given the parent's value?

    Walks parent links recursively: a field is excluded if its immediate
    parent has an excluding value, or the parent itself is excluded.
    """
    if field.parent is None:
        return False
    parent_field = HEADER.field(field.parent)
    if is_excluded(values, parent_field):
        return True
    assert field.parent_values is not None
    return values.get(field.parent, 0) not in field.parent_values


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
        if is_excluded(normalized, field):
            continue  # handled by step 2
        normalized[field.name] = _fix_limited_domain(
            field.name, normalized[field.name], field.valid_values, matches
        )

    # Step 2: zero conditionally-excluded fields (elimination lemma).
    for field in HEADER:
        if field.parent is not None and is_excluded(normalized, field):
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
    if normalized[FieldName.NW_PROTO] == IPPROTO_ICMP and not is_excluded(
        normalized, HEADER.field(FieldName.TP_SRC)
    ):
        domain = range(ICMP_TP_MASK + 1)
        narrowed += [(FieldName.TP_SRC, domain), (FieldName.TP_DST, domain)]
    for name, domain in narrowed:
        normalized[name] = _fix_limited_domain(
            name, normalized[name], domain, matches
        )

    return normalized
