"""Tests for catching-rule planning (§6): strategies 1 and 2."""

import networkx as nx
import pytest

from repro.core.catching import (
    CATCH_PRIORITY,
    FILTER_PRIORITY,
    CapacityError,
    ColoringAlgorithm,
    plan_catching_rules,
)
from repro.openflow.actions import CONTROLLER_PORT
from repro.openflow.fields import FieldName


def triangle():
    return nx.Graph([("a", "b"), ("b", "c"), ("a", "c")])


class TestStrategy1:
    def test_triangle_needs_three_values(self):
        plan = plan_catching_rules(triangle(), strategy=1)
        assert plan.num_reserved_values == 3

    def test_star_needs_two_values(self):
        plan = plan_catching_rules(nx.star_graph(6), strategy=1)
        assert plan.num_reserved_values == 2

    def test_adjacent_switches_differ(self):
        graph = nx.erdos_renyi_graph(20, 0.2, seed=4)
        plan = plan_catching_rules(graph, strategy=1)
        for u, v in graph.edges:
            assert plan.value1(u) != plan.value1(v)

    def test_catching_rules_cover_other_colors(self):
        plan = plan_catching_rules(triangle(), strategy=1)
        rules = plan.catching_rules("a")
        assert len(rules) == plan.num_reserved_values - 1
        for rule in rules:
            assert rule.priority == CATCH_PRIORITY
            assert rule.forwarding_set() == {CONTROLLER_PORT}
            # Own value is never caught at the switch itself.
            own = plan.value1("a")
            fm = rule.match.fields[FieldName.DL_VLAN]
            assert not fm.matches(own)

    def test_probe_match_is_own_value(self):
        plan = plan_catching_rules(triangle(), strategy=1)
        match = plan.probe_match("a", "b")
        fm = match.fields[plan.field1]
        assert fm.matches(plan.value1("a"))

    def test_probe_caught_downstream_not_at_probed(self):
        plan = plan_catching_rules(triangle(), strategy=1)
        header = {plan.field1: plan.value1("a")}
        # No catching rule at "a" matches the probe...
        assert not any(
            r.match.matches(header) for r in plan.catching_rules("a")
        )
        # ...but one at the downstream neighbor does.
        assert any(r.match.matches(header) for r in plan.catching_rules("b"))

    def test_no_coloring_gives_one_value_per_switch(self):
        graph = nx.path_graph(9)
        plan = plan_catching_rules(
            graph, strategy=1, algorithm=ColoringAlgorithm.NONE
        )
        assert plan.num_reserved_values == 9


class TestStrategy2:
    def test_common_neighbor_forces_distinct(self):
        # Star: all leaves share the hub, so every leaf needs its own id.
        graph = nx.star_graph(5)
        plan = plan_catching_rules(graph, strategy=2)
        leaf_values = {plan.value1(n) for n in range(1, 6)}
        assert len(leaf_values) == 5

    def test_rule_structure(self):
        plan = plan_catching_rules(triangle(), strategy=2)
        rules = plan.catching_rules("a")
        catch = [r for r in rules if r.priority == CATCH_PRIORITY]
        filters = [r for r in rules if r.priority == FILTER_PRIORITY]
        assert len(catch) == 1
        assert catch[0].forwarding_set() == {CONTROLLER_PORT}
        assert len(filters) == plan.num_reserved_values - 1
        for rule in filters:
            assert rule.forwarding_set() == frozenset()

    def test_probe_match_pins_both_fields(self):
        plan = plan_catching_rules(triangle(), strategy=2)
        match = plan.probe_match("a", "b")
        assert plan.field1 in match.fields
        assert plan.field2 in match.fields

    def test_probe_delivered_only_by_downstream(self):
        from repro.openflow.table import FlowTable, pack_header

        plan = plan_catching_rules(triangle(), strategy=2)
        header = {
            plan.field1: plan.value1("a"),
            plan.field2: plan.value2("b"),
        }

        def outcome_at(node):
            table = FlowTable()
            for rule in plan.catching_rules(node):
                table.install(rule)
            return table.process(pack_header(header))

        # Probed switch "a": no monitoring rule touches the probe.
        assert not any(
            r.match.matches(header) for r in plan.catching_rules("a")
        )
        # Downstream "b": the catch rule wins (it may overlap a filter,
        # which is why it has the higher priority).
        assert [po.port for po, _ in outcome_at("b")] == [CONTROLLER_PORT]
        # Other neighbor "c": the filter drops the probe, so the
        # controller sees it exactly once.
        assert outcome_at("c") == []

    def test_same_color_downstream_rejected(self):
        # Two far-apart path nodes can share a color; probe_match must
        # refuse such a pairing.
        graph = nx.path_graph(8)
        plan = plan_catching_rules(graph, strategy=2)
        same = [
            (u, v)
            for u in graph.nodes
            for v in graph.nodes
            if u != v and plan.color_of[u] == plan.color_of[v]
        ]
        if same:
            with pytest.raises(ValueError):
                plan.probe_match(*same[0])

    def test_capacity_error_on_tiny_field(self):
        # nw_tos has 6 bits = 64 values; a 70-leaf star needs 70 ids in
        # strategy 2.
        graph = nx.star_graph(70)
        with pytest.raises(CapacityError):
            plan_catching_rules(graph, strategy=2, base2=0)


class TestAlgorithms:
    @pytest.mark.parametrize(
        "algorithm",
        [
            ColoringAlgorithm.EXACT,
            ColoringAlgorithm.DSATUR,
            ColoringAlgorithm.LARGEST_FIRST,
        ],
    )
    def test_all_algorithms_yield_valid_plans(self, algorithm):
        graph = nx.erdos_renyi_graph(15, 0.25, seed=9)
        plan = plan_catching_rules(graph, strategy=1, algorithm=algorithm)
        for u, v in graph.edges:
            assert plan.value1(u) != plan.value1(v)

    def test_exact_minimizes(self):
        graph = nx.cycle_graph(9)  # odd cycle: chromatic number 3
        exact = plan_catching_rules(graph, algorithm=ColoringAlgorithm.EXACT)
        assert exact.num_reserved_values == 3

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            plan_catching_rules(triangle(), strategy=3)

    def test_reserved_values_set(self):
        plan = plan_catching_rules(triangle(), strategy=1, base1=0xF00)
        assert {plan.value1(node) for node in triangle().nodes} == {
            0xF00, 0xF01, 0xF02,
        }
