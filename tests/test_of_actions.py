"""Tests for action lists, outcome kinds and forwarding sets."""

import pytest

from action_helpers import multicast
from repro.openflow.actions import (
    ActionList,
    EcmpGroup,
    Forward,
    Multicast,
    OutcomeKind,
    SetField,
    drop,
    ecmp,
    output,
)
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, pack_header


class TestOutcomeKinds:
    def test_drop_kind(self):
        assert drop().outcome_kind() == OutcomeKind.DROP
        assert ActionList().outcome_kind() == OutcomeKind.DROP

    def test_unicast_kind(self):
        assert output(3).outcome_kind() == OutcomeKind.UNICAST

    def test_multicast_kind(self):
        assert multicast([1, 2, 3]).outcome_kind() == OutcomeKind.MULTICAST

    def test_ecmp_kind(self):
        assert ecmp([1, 2]).outcome_kind() == OutcomeKind.ECMP

    def test_single_port_ecmp_still_ecmp_flagged(self):
        actions = ecmp([4])
        assert actions.is_ecmp
        assert actions.forwarding_set() == frozenset({4})


class TestForwardingSets:
    def test_drop_empty_set(self):
        assert drop().forwarding_set() == frozenset()

    def test_unicast_singleton(self):
        assert output(7).forwarding_set() == frozenset({7})

    def test_multicast_set(self):
        assert multicast([1, 5, 9]).forwarding_set() == frozenset({1, 5, 9})

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ValueError):
            ActionList((Forward(1), Forward(1)))
        with pytest.raises(ValueError):
            Multicast((1, 1))
        with pytest.raises(ValueError):
            EcmpGroup((2, 2))


class TestRewrites:
    def test_rewrite_before_output_applies(self):
        actions = output(1, nw_tos=0x2A)
        assert actions.rewrites_on_port(1) == {FieldName.NW_TOS: 0x2A}

    def test_rewrite_applies_to_later_outputs_only(self):
        actions = ActionList(
            (Forward(1), SetField(FieldName.NW_TOS, 5), Forward(2))
        )
        assert actions.rewrites_on_port(1) == {}
        assert actions.rewrites_on_port(2) == {FieldName.NW_TOS: 5}

    def test_later_rewrite_overrides_earlier(self):
        actions = ActionList(
            (
                SetField(FieldName.NW_TOS, 1),
                SetField(FieldName.NW_TOS, 2),
                Forward(1),
            )
        )
        assert actions.rewrites_on_port(1) == {FieldName.NW_TOS: 2}

    def test_apply_rewrites_header(self):
        table = FlowTable([Rule(1, Match.wildcard(), output(1, nw_tos=7))])
        header = {FieldName.NW_TOS: 0, FieldName.NW_SRC: 9}
        ((outcome, observed),) = table.process(pack_header(header))
        assert outcome.port == 1
        observed = HEADER.unpack(observed)
        assert observed[FieldName.NW_TOS] == 7
        assert observed[FieldName.NW_SRC] == 9

    def test_rewritten_fields_union(self):
        actions = ActionList(
            (
                SetField(FieldName.NW_TOS, 1),
                Forward(1),
                SetField(FieldName.DL_VLAN, 9),
                Forward(2),
            )
        )
        assert actions.rewritten_fields() == {
            FieldName.NW_TOS,
            FieldName.DL_VLAN,
        }
        # Computed once, with the port outcomes.
        assert actions.rewritten_fields() is actions.rewritten_fields()
        assert output(3).rewritten_fields() == frozenset()

    def test_packed_rewrite_is_the_dict_rewrite(self):
        actions = ActionList(
            (
                SetField(FieldName.NW_TOS, 1),
                Forward(1),
                SetField(FieldName.DL_VLAN, 9),
                SetField(FieldName.IN_PORT, 0xFFFF),
                Forward(2),
            )
        )
        header = {
            FieldName.IN_PORT: 4,
            FieldName.DL_VLAN: 0xABC,
            FieldName.NW_TOS: 0x3F,
            FieldName.TP_DST: 80,
        }
        for po in actions.port_outcomes:
            rewritten = {**header, **dict(po.rewrites)}
            assert pack_header(header) & po.keep | po.set_bits == pack_header(
                rewritten
            )

    def test_setfield_range_checked(self):
        with pytest.raises(ValueError):
            SetField(FieldName.DL_VLAN_PCP, 8)  # 3-bit field

    def test_rewrites_on_unknown_port_raises(self):
        with pytest.raises(KeyError):
            output(1).rewrites_on_port(9)


class TestEcmpGroups:
    def test_per_port_rewrites(self):
        group = EcmpGroup(
            ports=(1, 2),
            rewrites=((2, (SetField(FieldName.NW_TOS, 9),)),),
        )
        actions = ActionList((group,))
        assert actions.rewrites_on_port(1) == {}
        assert actions.rewrites_on_port(2) == {FieldName.NW_TOS: 9}

    def test_shared_rewrites_apply_to_all_ports(self):
        actions = ecmp([1, 2], nw_tos=3)
        assert actions.rewrites_on_port(1) == {FieldName.NW_TOS: 3}
        assert actions.rewrites_on_port(2) == {FieldName.NW_TOS: 3}

    def test_ecmp_must_be_only_forwarding_action(self):
        with pytest.raises(ValueError):
            ActionList((EcmpGroup((1,)), Forward(2)))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            EcmpGroup(())

    def test_rewrite_for_foreign_port_rejected(self):
        with pytest.raises(ValueError):
            EcmpGroup(ports=(1,), rewrites=((2, ()),))


class TestEquality:
    def test_equal_action_lists(self):
        assert output(1, nw_tos=2) == output(1, nw_tos=2)

    def test_unequal_action_lists(self):
        assert output(1) != output(2)
        assert drop() != output(1)

    def test_hashable(self):
        assert len({output(1), output(1), drop()}) == 2

    def test_drop_marker_vs_empty_equivalent_outcome(self):
        assert drop().forwarding_set() == ActionList().forwarding_set()
