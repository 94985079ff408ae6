"""Tests for the drop-postponing transform (§4.3)."""

import pytest

from repro.core.droppostpone import (
    DROP_TAG_TOS,
    TAG_DROP_PRIORITY,
    finalize_drop_rule,
    postpone_drop_rule,
    tag_drop_rule,
)
from repro.openflow.actions import drop, output
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule


def drop_rule():
    return Rule(
        priority=10, match=Match.build(nw_dst=0x0A000002), actions=drop()
    )


class TestPostpone:
    def test_stand_in_forwards_with_tag(self):
        stand_in = postpone_drop_rule(drop_rule(), neighbor_port=3)
        assert stand_in.forwarding_set() == {3}
        assert stand_in.actions.rewrites_on_port(3) == {
            FieldName.NW_TOS: DROP_TAG_TOS
        }

    def test_stand_in_keeps_match_priority_cookie(self):
        rule = drop_rule()
        stand_in = postpone_drop_rule(rule, neighbor_port=3)
        assert stand_in.match == rule.match
        assert stand_in.priority == rule.priority
        assert stand_in.cookie == rule.cookie

    def test_non_drop_rule_rejected(self):
        rule = Rule(priority=1, match=Match.wildcard(), actions=output(1))
        with pytest.raises(ValueError):
            postpone_drop_rule(rule, neighbor_port=3)

    def test_finalize_restores_drop(self):
        stand_in = postpone_drop_rule(drop_rule(), neighbor_port=3)
        final = finalize_drop_rule(stand_in)
        assert final.forwarding_set() == frozenset()
        assert final.key() == stand_in.key()


class TestTagDropRule:
    def test_matches_tagged_traffic_only(self):
        rule = tag_drop_rule()
        assert rule.match.matches({FieldName.NW_TOS: DROP_TAG_TOS})
        assert not rule.match.matches({FieldName.NW_TOS: 0})

    def test_drops(self):
        assert tag_drop_rule().forwarding_set() == frozenset()

    def test_priority_below_catch_above_production(self):
        from repro.core.catching import CATCH_PRIORITY

        assert tag_drop_rule().priority == TAG_DROP_PRIORITY
        assert TAG_DROP_PRIORITY < CATCH_PRIORITY


class TestEndToEndSemantics:
    def test_tagged_packet_dropped_at_neighbor_but_probe_caught(self):
        """Figure 3: production traffic dies one hop later; probes
        (matching the catch rule) still reach the controller."""
        from repro.openflow.actions import CONTROLLER_PORT
        from repro.openflow.table import FlowTable, pack_header

        # Neighbor switch: catch rule above the tag-drop rule.
        catch = Rule(
            priority=0xFFFF,
            match=Match.build(dl_vlan=0xF01),
            actions=output(CONTROLLER_PORT),
        )
        neighbor = FlowTable()
        neighbor.install(catch)
        neighbor.install(tag_drop_rule())

        tagged_production = {
            FieldName.NW_TOS: DROP_TAG_TOS, FieldName.DL_VLAN: 0
        }
        tagged_probe = {
            FieldName.NW_TOS: DROP_TAG_TOS, FieldName.DL_VLAN: 0xF01
        }
        assert neighbor.process(pack_header(tagged_production)) == []
        caught = neighbor.process(pack_header(tagged_probe))
        assert [po.port for po, _ in caught] == [CONTROLLER_PORT]
