"""The probe header as one packed int, held to the per-field forms.

A probe header stays packed in :meth:`Match.packed`'s bit layout from
the solver's model to the caught packet.  Three properties hold each
packed step to what it replaced:

* §5.2 normalization equals the per-field reference
  (``tests/normalize_reference.py``), header for header and
  ``CraftError`` for ``CraftError``;
* two packed observations are equal exactly when their
  :func:`wire_visible_items` are, in every ``(dl_type, nw_proto)``
  class, and a caught packet packs to the observation it confirms;
* the Table 1 re-check on packed headers agrees with
  :meth:`Match.matches` and with the sorted scan it replaced.
"""

import normalize_reference as reference
import pytest
from hypothesis_budget import examples
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.probegen import _candidates, _hit_outcomes
from repro.openflow.actions import drop, ecmp, output
from repro.openflow.fields import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    HEADER,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    VALID_ETHERTYPES,
    VALID_IP_PROTOS,
    VLAN_NONE,
    FieldName,
)
from repro.openflow.match import FieldMatch, Match
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable, pack_header
from repro.packets.craft import (
    NOT_IN_PORT,
    CraftError,
    craft_packet,
    normalize_abstract_header,
    wire_visible_bits,
    wire_visible_items,
)
from repro.packets.parse import parse_packet

#: Every ``(dl_type, nw_proto)`` class: each valid value and one
#: invalid value of each.
CLASSES = [
    (dl_type, nw_proto)
    for dl_type in (*VALID_ETHERTYPES, 0x1234)
    for nw_proto in (*VALID_IP_PROTOS, 99)
]

#: Values that reach every branch: the limited domains' valid and
#: invalid values, the untagged marker, a priority, and ICMP type/code
#: values above a byte.
SPECIAL = {
    FieldName.DL_TYPE: (ETHERTYPE_IPV4, ETHERTYPE_ARP, 0, 0x0801),
    FieldName.NW_PROTO: (*VALID_IP_PROTOS, 0, 99),
    FieldName.DL_VLAN: (VLAN_NONE, 0),
    FieldName.DL_VLAN_PCP: (0, 5),
    FieldName.TP_SRC: (0, 0x1F, 0x100, 0xFF01),
    FieldName.TP_DST: (0, 0x1F, 0x100, 0xFF01),
}

#: The fields normalization reads or rewrites, and two it leaves alone.
MATCHED = (
    FieldName.DL_TYPE,
    FieldName.NW_PROTO,
    FieldName.DL_VLAN,
    FieldName.DL_VLAN_PCP,
    FieldName.TP_SRC,
    FieldName.TP_DST,
    FieldName.NW_TOS,
    FieldName.NW_SRC,
)


def field_value(name):
    """A value of ``name``: a special one or anything in its width."""
    every = st.integers(0, HEADER.field(name).max_value)
    return st.one_of(st.sampled_from(SPECIAL.get(name, (0,))), every)


raw_headers = st.fixed_dictionaries(
    {name: field_value(name) for name in HEADER.names()}
)


@st.composite
def field_matches(draw, name):
    """A ``(value, mask)`` constraint on ``name``: exact, a prefix or
    any mask, its value drawn like a header's."""
    field = HEADER.field(name)
    full = field.max_value
    prefix = st.integers(0, field.width).map(lambda n: full >> n ^ full)
    mask = draw(st.one_of(st.just(full), prefix, st.integers(0, full)))
    return FieldMatch(draw(field_value(name)) & mask, mask)


@st.composite
def matches(draw):
    """A match on up to three of :data:`MATCHED`."""
    names = draw(st.sets(st.sampled_from(MATCHED), max_size=3))
    return Match({name: draw(field_matches(name)) for name in names})


def zeros(**fields):
    """A header: every field 0 but the ones named."""
    values = {name: 0 for name in HEADER.names()}
    values.update({FieldName(name): value for name, value in fields.items()})
    return values


class TestNormalizationAgreesWithTheReference:
    @settings(max_examples=examples(600), deadline=None)
    @given(
        values=raw_headers,
        relevant=st.lists(matches(), max_size=5),
        lazily=st.booleans(),
    )
    @example(  # untagged with a priority only 0 can replace
        values=zeros(
            dl_type=ETHERTYPE_IPV4,
            nw_proto=IPPROTO_TCP,
            dl_vlan=VLAN_NONE,
            dl_vlan_pcp=5,
        ),
        relevant=[Match.build(dl_vlan_pcp=5)],
        lazily=False,
    )
    @example(  # ICMP type above a byte, a spare value that keeps a miss
        values=zeros(
            dl_type=ETHERTYPE_IPV4,
            nw_proto=IPPROTO_ICMP,
            dl_vlan=3,
            tp_src=0x1208,
            tp_dst=0x0101,
        ),
        relevant=[Match.build(tp_src=0x08), Match.build(tp_dst=0x0101)],
        lazily=True,
    )
    def test_packed_equals_per_field(self, values, relevant, lazily):
        packed = pack_header(values)
        try:
            expected = reference.normalize_abstract_header(values, relevant)
        except CraftError:
            with pytest.raises(CraftError):
                normalize_abstract_header(packed, relevant)
            return
        got = normalize_abstract_header(
            packed, iter(relevant) if lazily else relevant
        )
        assert HEADER.unpack(got) == expected

    @pytest.mark.parametrize("dl_type, nw_proto", CLASSES)
    def test_every_class_keeps_what_it_carries(self, dl_type, nw_proto):
        values = {field.name: field.max_value for field in HEADER}
        values[FieldName.DL_TYPE] = dl_type
        values[FieldName.NW_PROTO] = nw_proto
        values[FieldName.DL_VLAN] = 7
        expected = reference.normalize_abstract_header(values, [])
        got = normalize_abstract_header(pack_header(values), [])
        assert HEADER.unpack(got) == expected


@st.composite
def header_pairs(draw):
    """A header in a drawn class, and the same header with up to three
    fields set to, or flipped by (XOR), a drawn value."""
    values = draw(raw_headers)
    dl_type, nw_proto = draw(st.sampled_from(CLASSES))
    values[FieldName.DL_TYPE] = dl_type
    values[FieldName.NW_PROTO] = nw_proto
    other = dict(values)
    for name in draw(st.sets(st.sampled_from(HEADER.names()), max_size=3)):
        value = draw(field_value(name))
        other[name] = other[name] ^ value if draw(st.booleans()) else value
    return values, other


ICMP = zeros(dl_type=ETHERTYPE_IPV4, nw_proto=IPPROTO_ICMP, tp_src=0x0108)


class TestPackedObservations:
    @settings(max_examples=examples(600), deadline=None)
    @given(pair=header_pairs())
    @example(pair=(ICMP, {**ICMP, FieldName.TP_SRC: 0xFE08}))
    @example(pair=(ICMP, {**ICMP, FieldName.DL_VLAN: VLAN_NONE}))
    def test_equal_exactly_when_the_visible_items_are(self, pair):
        values, other = pair
        packed = wire_visible_bits(pack_header(values))
        packed_other = wire_visible_bits(pack_header(other))
        items_equal = wire_visible_items(values) == wire_visible_items(other)
        assert (packed == packed_other) == items_equal

    @pytest.mark.parametrize("dl_type, nw_proto", CLASSES)
    def test_what_each_class_hides(self, dl_type, nw_proto):
        values = zeros(dl_type=dl_type, nw_proto=nw_proto, dl_vlan=VLAN_NONE)
        visible = {name for name, _ in wire_visible_items(values)}
        packed = wire_visible_bits(pack_header(values))
        for field in HEADER:
            # The lowest bit, the highest alone, and all of them.
            for value in (1, 1 << field.width - 1, field.max_value):
                other = {**values, field.name: value}
                same = packed == wire_visible_bits(pack_header(other))
                items = wire_visible_items(other)
                assert same == (wire_visible_items(values) == items)
                if field.name not in visible:
                    assert same

    @settings(max_examples=examples(300), deadline=None)
    @given(values=raw_headers, in_port=field_value(FieldName.IN_PORT))
    def test_a_caught_packet_packs_to_its_observation(self, values, in_port):
        """What ``Monitor.handle_caught_probe`` compares: the parsed
        header, ``in_port`` cleared, is the sent header's projection."""
        header = pack_header(values)
        try:
            raw = craft_packet(header)
        except CraftError:
            return
        parsed, _ = parse_packet(raw, in_port)
        caught = parsed & NOT_IN_PORT
        assert caught == wire_visible_bits(header)
        assert caught == wire_visible_bits(parsed)


#: A small header universe for whole tables: two values per field, and
#: headers take a third that no rule matches.
SMALL = {
    FieldName.NW_SRC: (0x0A000001, 0x0A000002),
    FieldName.NW_DST: (0x14000001, 0x14000002),
    FieldName.NW_TOS: (0, 3),
}
ACTIONS = (output(1), output(2, nw_tos=3), drop(), ecmp([1, 2]))


@st.composite
def small_rules(draw):
    names = draw(st.sets(st.sampled_from(sorted(SMALL)), max_size=2))
    match = Match.build(
        **{name.value: draw(st.sampled_from(SMALL[name])) for name in names}
    )
    priority = draw(st.sampled_from((1, 5, 5, 9)))
    return Rule(priority, match, draw(st.sampled_from(ACTIONS)))


def sorted_scan(rule, candidates, header):
    """The Table 1 re-check as it was: candidates and the probed rule
    sorted by priority (stable), ``Match.matches`` on the header dict."""
    ordered = sorted(candidates + [rule], key=lambda r: -r.priority)
    matching = (r for r in ordered if r.match.matches(header))
    if next(matching, None) is not rule:
        return None
    below = next(matching, None)
    packed = pack_header(header)
    absent = (
        RuleOutcome.dropped()
        if below is None
        else RuleOutcome.from_rule(below, packed)
    )
    return RuleOutcome.from_rule(rule, packed), absent


class TestPackedTable1:
    @settings(max_examples=examples(300), deadline=None)
    @given(match=matches(), values=raw_headers)
    def test_the_packed_test_is_match_matches(self, match, values):
        value, mask = match.packed()
        packed_test = not (pack_header(values) ^ value) & mask
        assert packed_test == match.matches(values)

    @settings(max_examples=examples(400), deadline=None)
    @given(
        rules=st.lists(small_rules(), min_size=1, max_size=7),
        pick=st.integers(0, 6),
        header=st.fixed_dictionaries(
            {name: st.sampled_from((*SMALL[name], 7)) for name in SMALL}
        ),
    )
    def test_hit_outcomes_is_the_sorted_scan(self, rules, pick, header):
        table = FlowTable(rules)
        rule = table.rules()[pick % len(table)]
        candidates = _candidates(table, rule)
        expected = sorted_scan(rule, candidates, header)
        assert _hit_outcomes(rule, candidates, pack_header(header)) == expected
