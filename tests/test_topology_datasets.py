"""Tests for topology generators, synthetic corpora and ACL datasets."""

import networkx as nx
import pytest

from overlap_reference import overlaps
from repro.datasets import (
    CAMPUS_PROFILE,
    STANFORD_PROFILE,
    campus_table,
    stanford_table,
)
from repro.openflow.fields import FieldName
from repro.topology.corpus import topology_zoo_like_corpus
from repro.topology.generators import (
    fat_tree,
    linear,
    ring,
    star,
    triangle,
)


class TestGenerators:
    def test_star(self):
        graph = star(4)
        assert graph.number_of_nodes() == 5
        assert graph.degree["hub"] == 4

    def test_triangle(self):
        graph = triangle()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3

    def test_linear(self):
        graph = linear(5)
        assert graph.number_of_edges() == 4
        with pytest.raises(ValueError):
            linear(0)

    def test_ring(self):
        graph = ring(6)
        assert all(graph.degree[n] == 2 for n in graph.nodes)
        with pytest.raises(ValueError):
            ring(2)

    def test_fat_tree_k4_is_20_switches(self):
        graph = fat_tree(4)
        assert graph.number_of_nodes() == 20  # §8.4's 20-switch FatTree
        edges = [n for n in graph.nodes if n.startswith("edge")]
        assert len(edges) == 8
        # Edge switches connect only to their pod's aggregation.
        for edge in edges:
            assert graph.degree[edge] == 2

    def test_fat_tree_structure(self):
        graph = fat_tree(4)
        cores = [n for n in graph.nodes if n.startswith("core")]
        aggs = [n for n in graph.nodes if n.startswith("agg")]
        assert len(cores) == 4
        assert len(aggs) == 8
        for agg in aggs:
            assert graph.degree[agg] == 4  # 2 cores + 2 edges

    def test_fat_tree_rejects_odd_k(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_fat_tree_connected(self):
        assert nx.is_connected(fat_tree(4))
        assert nx.is_connected(fat_tree(6))


class TestCorpora:
    def test_zoo_corpus_shape(self):
        corpus = topology_zoo_like_corpus()
        assert len(corpus) == 261
        sizes = [g.number_of_nodes() for g in corpus]
        assert min(sizes) >= 4
        assert max(sizes) <= 754
        # Mostly small graphs, like the real zoo.
        assert sum(1 for s in sizes if s <= 40) > len(sizes) / 2

    def test_zoo_graphs_connected(self):
        corpus = topology_zoo_like_corpus()
        assert all(nx.is_connected(g) for g in corpus[:50])

    def test_zoo_deterministic(self):
        # Bypass the memoization cache for one arm so this still checks
        # generation determinism, not just cache identity.
        a = topology_zoo_like_corpus.__wrapped__(seed=1)
        b = topology_zoo_like_corpus(seed=1)
        assert [g.number_of_edges() for g in a] == [
            g.number_of_edges() for g in b
        ]

    def test_zoo_corpus_memoized(self):
        assert topology_zoo_like_corpus(seed=1) is topology_zoo_like_corpus(
            seed=1
        )

    def test_corpus_names(self):
        assert topology_zoo_like_corpus()[0].graph["name"] == "zoo000"


class TestAclDatasets:
    def test_table_sizes_match_paper(self):
        assert len(stanford_table()) == STANFORD_PROFILE.num_rules == 2755
        assert len(campus_table()) == CAMPUS_PROFILE.num_rules == 10958

    def test_deterministic(self):
        a = stanford_table(seed=3)
        b = stanford_table(seed=3)
        assert [r.match for r in a] == [r.match for r in b]

    def test_priorities_unique_descending(self):
        table = stanford_table()
        priorities = [r.priority for r in table]
        assert priorities == sorted(priorities, reverse=True)
        assert len(set(priorities)) == len(priorities)

    def test_rules_are_well_formed(self):
        # §5.2: a rule matching tp_dst must also pin nw_proto; a rule
        # matching nw_proto must pin dl_type.
        for table in (stanford_table(), campus_table()):
            for rule in table:
                fields = set(rule.match.fields)
                if FieldName.TP_DST in fields:
                    assert FieldName.NW_PROTO in fields
                if FieldName.NW_PROTO in fields:
                    assert FieldName.DL_TYPE in fields

    def test_no_reserved_field_usage(self):
        # ACL rules must not match or rewrite the probing VLAN field.
        for rule in stanford_table():
            assert FieldName.DL_VLAN not in rule.match.fields
            assert FieldName.DL_VLAN not in rule.actions.rewritten_fields()

    def test_has_both_actions(self):
        table = campus_table()
        kinds = {rule.outcome_kind() for rule in table}
        assert "drop" in kinds
        assert "unicast" in kinds

    def test_overlap_structure_exists(self):
        # Shadow/redundant construction must produce genuine overlaps.
        table = stanford_table()
        rules = table.rules()
        sample = rules[: 200]
        overlapping = sum(
            1
            for i, a in enumerate(sample)
            for b in sample[i + 1 :]
            if overlaps(a.match, b.match)
        )
        assert overlapping > 0
