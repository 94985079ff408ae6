"""Tests for flow-table semantics: priority lookup, FlowMod-style
mutation, overlap queries, and outcome processing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from action_helpers import multicast
from repro.openflow.actions import (
    CONTROLLER_PORT,
    ActionList,
    EcmpGroup,
    Forward,
    SetField,
    drop,
    ecmp,
    output,
)
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import FieldMatch, Match
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable, pack_header


def fields(**kwargs):
    return {FieldName(k): v for k, v in kwargs.items()}


def header(**kwargs):
    """A packed header: what ``lookup`` and ``process`` take."""
    return pack_header(fields(**kwargs))


def pack_header_field_by_field(header_values):
    """``pack_header`` as it was before it read a precomputed (name,
    mask, shift) table: the definition, from the layout itself."""
    packed = 0
    for field in HEADER:
        value = header_values.get(field.name, 0) & field.max_value
        packed |= value << (HEADER.total_bits - field.offset - field.width)
    return packed


class TestPackHeader:
    @settings(max_examples=300, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                field.name: st.integers(0, field.max_value)
                for field in HEADER
            },
        )
    )
    def test_in_range_values_pack_as_the_layout_packs_them(self, values):
        exact = Match(
            {
                name: FieldMatch(value, HEADER.field(name).max_value)
                for name, value in values.items()
            }
        )
        assert pack_header(values) == exact.packed()[0]
        # Unpacking gives every field back, absent ones as 0, in order.
        unpacked = HEADER.unpack(pack_header(values))
        assert list(unpacked) == HEADER.names()
        assert unpacked == {name: values.get(name, 0) for name in unpacked}

    def test_a_header_wider_than_the_layout_does_not_unpack(self):
        with pytest.raises(ValueError, match="too wide"):
            HEADER.unpack(1 << HEADER.total_bits)

    @settings(max_examples=300, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                field.name: st.one_of(
                    st.integers(0, field.max_value),
                    st.integers(field.max_value + 1, 1 << 70),
                )
                for field in HEADER
            },
        )
    )
    def test_wide_and_missing_values_are_cut_and_zero(self, values):
        assert pack_header(values) == pack_header_field_by_field(values)

    def test_a_wide_value_does_not_spill_into_its_neighbour(self):
        assert pack_header({FieldName.TP_DST: 0x1_0001}) == 1
        assert pack_header({}) == 0


class TestLookup:
    def test_highest_priority_wins(self):
        table = FlowTable()
        low = Rule(priority=1, match=Match.wildcard(), actions=output(1))
        high = Rule(priority=9, match=Match.build(nw_src=5), actions=output(2))
        table.install(low)
        table.install(high)
        assert table.lookup(header(nw_src=5)) is high
        assert table.lookup(header(nw_src=6)) is low

    def test_miss_returns_none(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.build(nw_src=1), actions=output(1))
        )
        assert table.lookup(header(nw_src=2)) is None

    def test_lookup_agrees_with_linear_scan(self):
        # Reference property: lookup == max-priority matching rule.
        table = FlowTable()
        rules = [
            Rule(
                priority=p,
                match=Match.build(nw_dst=(0x0A000000, p % 9)),
                actions=output(p % 4 + 1),
            )
            for p in range(1, 30)
        ]
        for rule in rules:
            table.install(rule)
        probe = fields(nw_dst=0x0A000001)
        expected = max(
            (r for r in rules if r.match.matches(probe)),
            key=lambda r: r.priority,
            default=None,
        )
        assert table.lookup(pack_header(probe)) is expected


class TestInstallSemantics:
    def test_replaces_same_key(self):
        table = FlowTable()
        match = Match.build(nw_src=1)
        table.install(Rule(priority=5, match=match, actions=output(1)))
        table.install(Rule(priority=5, match=match, actions=output(2)))
        assert len(table) == 1
        assert table.lookup(header(nw_src=1)).forwarding_set() == {2}

    def test_equal_priority_disjoint_allowed(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.build(nw_src=1), actions=output(1))
        )
        table.install(
            Rule(priority=5, match=Match.build(nw_src=2), actions=output(2))
        )
        assert len(table) == 2

    def test_equal_priority_overlap_accepted_earlier_install_wins(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.build(nw_src=1), actions=output(1))
        )
        table.install(
            Rule(priority=5, match=Match.wildcard(), actions=output(2))
        )
        assert len(table) == 2
        assert table.lookup(header(nw_src=1)).forwarding_set() == {1}

    def test_rules_sorted_desc_priority(self):
        table = FlowTable()
        for priority in (3, 9, 1, 5):
            table.install(
                Rule(
                    priority=priority,
                    match=Match.build(nw_src=priority),
                    actions=output(1),
                )
            )
        assert [r.priority for r in table.rules()] == [9, 5, 3, 1]


class TestRemoval:
    def test_remove_by_key(self):
        table = FlowTable()
        rule = Rule(priority=5, match=Match.build(nw_src=1), actions=output(1))
        table.install(rule)
        assert table.remove(rule)
        assert len(table) == 0
        assert not table.remove(rule)

    def test_remove_matching_nonstrict_covers(self):
        table = FlowTable()
        inside = Rule(
            priority=5,
            match=Match.build(nw_dst=(0x0A000000, 24)),
            actions=output(1),
        )
        outside = Rule(
            priority=6,
            match=Match.build(nw_dst=(0x0B000000, 24)),
            actions=output(1),
        )
        table.install(inside)
        table.install(outside)
        removed = table.remove_matching(Match.build(nw_dst=(0x0A000000, 8)))
        assert removed == [inside]
        assert len(table) == 1

    def test_remove_matching_strict(self):
        table = FlowTable()
        match = Match.build(nw_src=1)
        rule = Rule(priority=5, match=match, actions=output(1))
        table.install(rule)
        assert table.remove_matching(match, strict_priority=4) == []
        assert table.remove_matching(match, strict_priority=5) == [rule]


class TestQueries:
    def test_higher_and_lower_priority(self):
        table = FlowTable()
        rules = {
            p: Rule(priority=p, match=Match.build(nw_src=1), actions=output(1))
            for p in (1, 5, 9)
        }
        for rule in rules.values():
            table.install(rule)
        # Whatever the install order, rules rank highest priority first.
        assert list(table) == [rules[9], rules[5], rules[1]]

    def test_overlapping_filter(self):
        table = FlowTable()
        a = Rule(priority=1, match=Match.build(nw_src=1), actions=output(1))
        b = Rule(priority=2, match=Match.build(nw_src=2), actions=output(1))
        c = Rule(priority=3, match=Match.wildcard(), actions=output(1))
        for rule in (a, b, c):
            table.install(rule)
        overlapping = table.overlapping(Match.build(nw_src=1))
        assert a in overlapping and c in overlapping and b not in overlapping

    def test_overlapping_cache_invalidated_on_mutation(self):
        table = FlowTable()
        a = Rule(priority=1, match=Match.build(nw_src=1), actions=output(1))
        table.install(a)
        assert table.overlapping(Match.build(nw_src=1)) == [a]
        b = Rule(priority=2, match=Match.wildcard(), actions=output(2))
        table.install(b)
        assert set(
            r.cookie for r in table.overlapping(Match.build(nw_src=1))
        ) == {a.cookie, b.cookie}
        table.remove(a)
        assert table.overlapping(Match.build(nw_src=1)) == [b]

    def test_copy_independent(self):
        table = FlowTable()
        rule = Rule(priority=5, match=Match.build(nw_src=1), actions=output(1))
        table.install(rule)
        dup = table.copy()
        dup.remove(rule)
        assert len(table) == 1
        assert len(dup) == 0

    def test_contains(self):
        table = FlowTable()
        rule = Rule(priority=5, match=Match.build(nw_src=1), actions=output(1))
        table.install(rule)
        assert rule in table


def as_pairs(emissions):
    """``process``'s emissions as ``(port, header)`` pairs."""
    return [(outcome.port, header) for outcome, header in emissions]


def ports_of(emissions):
    return {port for port, _ in as_pairs(emissions)}


class TestProcess:
    def test_unicast_emission(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.build(nw_src=1), actions=output(3))
        )
        emissions = table.process(header(nw_src=1))
        assert ports_of(emissions) == {3}

    def test_drop_outcome(self):
        table = FlowTable()
        table.install(Rule(priority=5, match=Match.wildcard(), actions=drop()))
        assert table.process(header(nw_src=1)) == []

    def test_miss_drops(self):
        table = FlowTable()
        assert table.process(header(nw_src=1)) == []

    def test_rewrite_applied_to_emission(self):
        table = FlowTable()
        table.install(
            Rule(
                priority=5,
                match=Match.build(nw_src=1),
                actions=output(2, nw_tos=0x15),
            )
        )
        packet = header(nw_src=1, nw_tos=0)
        ((outcome, emitted),) = table.process(packet)
        assert outcome.port == 2
        assert outcome.rewrites == ((FieldName.NW_TOS, 0x15),)
        assert HEADER.unpack(emitted) == {
            **HEADER.unpack(packet),
            FieldName.NW_TOS: 0x15,
        }

    def test_rewrite_free_unicast_hands_on_the_packet_itself(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.build(nw_src=1), actions=output(2))
        )
        packet = header(nw_src=1)
        ((outcome, emitted),) = table.process(packet)
        assert outcome.rewrites == ()
        assert emitted == packet

    def test_multicast_emits_on_all_ports(self):
        table = FlowTable()
        table.install(
            Rule(
                priority=5,
                match=Match.wildcard(),
                actions=multicast([1, 2, 3]),
            )
        )
        emissions = table.process(header(nw_src=1))
        assert ports_of(emissions) == {1, 2, 3}
        assert {h for _, h in emissions} == {header(nw_src=1)}

    def test_ecmp_chooser_selects_single_port(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.wildcard(), actions=ecmp([4, 7]))
        )
        packet = header()
        emissions = table.process(packet, ecmp_chooser=lambda rule: 7)
        assert [port for port, _ in as_pairs(emissions)] == [7]
        assert emissions[0][1] == packet  # one port, no rewrite

    def test_ecmp_default_chooser_lowest(self):
        table = FlowTable()
        table.install(
            Rule(priority=5, match=Match.wildcard(), actions=ecmp([4, 7]))
        )
        assert ports_of(table.process(header())) == {4}


def _expected_emissions(rule, packed, ecmp_chooser):
    """What ``process`` emitted while it went through ``RuleOutcome``:
    the rule's expected outcome, ECMP filtered to the chosen port."""
    if rule is None:
        return []
    outcome = RuleOutcome.from_rule(rule, packed)
    emissions = outcome.emissions
    if outcome.ecmp:
        port = (
            ecmp_chooser(rule)
            if ecmp_chooser is not None
            else min(outcome.ports())
        )
        emissions = tuple(e for e in emissions if e[0] == port)
    return list(emissions)


class TestProcessAgreesWithRuleOutcome:
    """``process`` emits what the rule's ``RuleOutcome`` plus the ECMP
    filter says it does: same ports, same order, same rewritten
    headers, for every outcome kind."""

    PACKET = header(nw_src=1, nw_dst=9, nw_tos=4, dl_vlan=3, in_port=2)

    RULES = {
        "unicast": output(3, nw_dst=0x0A000001),
        "multicast": ActionList(
            (
                SetField(FieldName.NW_TOS, 1),
                Forward(1),
                SetField(FieldName.DL_VLAN, 0x77),
                Forward(5),
                Forward(2),
            )
        ),
        "ecmp": ActionList(
            (
                SetField(FieldName.NW_TOS, 8),
                EcmpGroup(
                    ports=(6, 2, 9),
                    rewrites=(
                        (2, (SetField(FieldName.NW_DST, 0x0B000002),)),
                        (9, (SetField(FieldName.DL_VLAN, 0x99),)),
                    ),
                ),
            )
        ),
        "drop": drop(),
        "controller": output(CONTROLLER_PORT, nw_tos=0x20),
    }

    def process_both(self, actions, chooser=None):
        table = FlowTable()
        if actions is not None:
            table.install(
                Rule(priority=5, match=Match.build(nw_src=1), actions=actions)
            )
        got = as_pairs(table.process(self.PACKET, chooser))
        rule = table.lookup(self.PACKET)
        return got, _expected_emissions(rule, self.PACKET, chooser)

    @pytest.mark.parametrize("kind", sorted(RULES))
    def test_outcome_kinds(self, kind):
        got, expected = self.process_both(self.RULES[kind])
        assert got == expected
        assert (got == []) == (kind == "drop")

    def test_miss(self):
        got, expected = self.process_both(None)
        assert got == expected == []

    @pytest.mark.parametrize("choice", [6, 2, 9])
    def test_ecmp_chooser_called_once_per_packet(self, choice):
        asked = []

        def chooser(rule):
            asked.append(rule)
            return choice

        rule = Rule(
            priority=5, match=Match.build(nw_src=1), actions=self.RULES["ecmp"]
        )
        table = FlowTable([rule])
        got = as_pairs(table.process(self.PACKET, chooser))
        assert asked == [rule]
        assert [port for port, _ in got] == [choice]
        assert got == _expected_emissions(
            rule, self.PACKET, lambda rule: choice
        )


class TestRuleOutcomeDistinguishability:
    def test_different_ports_distinguishable(self):
        a = RuleOutcome(emissions=((1, 0),))
        b = RuleOutcome(emissions=((2, 0),))
        assert a.distinguishable_from(b)

    def test_same_port_different_header_distinguishable(self):
        tos = pack_header({FieldName.NW_TOS: 1})
        a = RuleOutcome(emissions=((1, 0),))
        b = RuleOutcome(emissions=((1, tos),))
        assert a.distinguishable_from(b)
        assert not b.distinguishable_from(RuleOutcome(emissions=((1, tos),)))

    def test_same_emissions_not_distinguishable(self):
        a = RuleOutcome(emissions=((1, 0),))
        b = RuleOutcome(emissions=((1, 0),))
        assert not a.distinguishable_from(b)

    def test_drop_vs_forward_distinguishable(self):
        assert RuleOutcome.dropped().distinguishable_from(
            RuleOutcome(emissions=((1, 0),))
        )

    def test_ecmp_vs_ecmp_shared_port_ambiguous(self):
        a = RuleOutcome(emissions=((1, 0), (2, 0)), ecmp=True)
        b = RuleOutcome(emissions=((2, 0), (3, 0)), ecmp=True)
        assert not a.distinguishable_from(b)

    def test_ecmp_vs_ecmp_disjoint_distinguishable(self):
        a = RuleOutcome(emissions=((1, 0),), ecmp=True)
        b = RuleOutcome(emissions=((2, 0),), ecmp=True)
        assert a.distinguishable_from(b)

    def test_unicast_inside_ecmp_set_ambiguous(self):
        unicast = RuleOutcome(emissions=((2, 0),))
        group = RuleOutcome(emissions=((1, 0), (2, 0)), ecmp=True)
        assert not unicast.distinguishable_from(group)
        assert not group.distinguishable_from(unicast)

    def test_multicast_vs_ecmp_count_exception(self):
        # A 2-port multicast inside the ECMP set: packet count differs.
        multi = RuleOutcome(emissions=((1, 0), (2, 0)))
        group = RuleOutcome(emissions=((1, 0), (2, 0)), ecmp=True)
        assert multi.distinguishable_from(group)

    def test_drop_vs_ecmp_distinguishable(self):
        group = RuleOutcome(emissions=((1, 0),), ecmp=True)
        assert RuleOutcome.dropped().distinguishable_from(group)
