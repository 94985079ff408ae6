"""Tests for the vertex-coloring solvers and the strategy-2 transform,
and Figure 9's reserved-value counts on the zoo-like corpus."""

import networkx as nx
import pytest

from repro.coloring import (
    GreedyOrder,
    exact_coloring,
    greedy_coloring,
    is_proper_coloring,
    square_graph,
)
from repro.sim.random import DeterministicRandom
from repro.topology.corpus import topology_zoo_like_corpus


def num_colors(coloring):
    return len(set(coloring.values()))


def random_graph(n, p, seed):
    rng = DeterministicRandom(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


class TestGreedy:
    @pytest.mark.parametrize("order", list(GreedyOrder))
    def test_produces_proper_colorings(self, order):
        for seed in range(5):
            graph = random_graph(30, 0.2, seed)
            coloring = greedy_coloring(graph, order)
            assert is_proper_coloring(graph, coloring)

    def test_bipartite_two_colors_dsatur(self):
        graph = nx.complete_bipartite_graph(5, 7)
        coloring = greedy_coloring(graph, GreedyOrder.DSATUR)
        assert num_colors(coloring) == 2

    def test_empty_graph(self):
        assert greedy_coloring(nx.Graph()) == {}

    def test_isolated_nodes_colored(self):
        graph = nx.Graph()
        graph.add_nodes_from([1, 2, 3])
        coloring = greedy_coloring(graph)
        assert set(coloring) == {1, 2, 3}
        assert num_colors(coloring) == 1


class TestExact:
    def test_triangle_needs_three(self):
        graph = nx.complete_graph(3)
        assert num_colors(exact_coloring(graph)) == 3

    def test_clique_needs_n(self):
        graph = nx.complete_graph(6)
        assert num_colors(exact_coloring(graph)) == 6

    def test_even_cycle_two_colors(self):
        graph = nx.cycle_graph(10)
        assert num_colors(exact_coloring(graph)) == 2

    def test_odd_cycle_three_colors(self):
        graph = nx.cycle_graph(11)
        assert num_colors(exact_coloring(graph)) == 3

    def test_petersen_graph_three_colors(self):
        graph = nx.petersen_graph()
        coloring = exact_coloring(graph)
        assert is_proper_coloring(graph, coloring)
        assert num_colors(coloring) == 3

    def test_star_two_colors(self):
        graph = nx.star_graph(20)
        assert num_colors(exact_coloring(graph)) == 2

    def test_exact_never_worse_than_greedy(self):
        for seed in range(8):
            graph = random_graph(18, 0.3, seed + 100)
            exact = num_colors(exact_coloring(graph))
            dsatur = num_colors(greedy_coloring(graph, GreedyOrder.DSATUR))
            assert exact <= dsatur
            assert is_proper_coloring(graph, exact_coloring(graph))

    def test_disconnected_components(self):
        graph = nx.Graph()
        graph.add_edges_from([(1, 2), (2, 3), (1, 3)])  # triangle
        graph.add_edges_from([(10, 11)])  # edge
        coloring = exact_coloring(graph)
        assert is_proper_coloring(graph, coloring)
        assert num_colors(coloring) == 3

    def test_budget_falls_back_to_greedy(self):
        graph = random_graph(25, 0.4, 7)
        coloring = exact_coloring(graph, node_budget=1)
        assert is_proper_coloring(graph, coloring)


class TestSquareGraph:
    def test_star_square_is_clique(self):
        # All leaves share the hub: the square is complete.
        graph = nx.star_graph(5)
        squared = square_graph(graph)
        assert squared.number_of_edges() == 6 * 5 // 2

    def test_path_square(self):
        graph = nx.path_graph(4)  # 0-1-2-3
        squared = square_graph(graph)
        assert squared.has_edge(0, 2)
        assert squared.has_edge(1, 3)
        assert not squared.has_edge(0, 3)

    def test_original_edges_preserved(self):
        graph = nx.cycle_graph(6)
        squared = square_graph(graph)
        for edge in graph.edges:
            assert squared.has_edge(*edge)

    def test_square_coloring_separates_two_hop_neighbors(self):
        graph = nx.random_tree(
            30, seed=3
        ) if hasattr(nx, "random_tree") else nx.path_graph(30)
        squared = square_graph(graph)
        coloring = exact_coloring(squared)
        for node in graph.nodes:
            neighbor_colors = [coloring[n] for n in graph.neighbors(node)]
            # All neighbors of one node must have pairwise distinct colors.
            assert len(neighbor_colors) == len(set(neighbor_colors))


class TestValidate:
    def test_missing_node_not_proper(self):
        graph = nx.path_graph(3)
        assert not is_proper_coloring(graph, {0: 0, 1: 1})

    def test_monochromatic_edge_not_proper(self):
        graph = nx.path_graph(2)
        assert not is_proper_coloring(graph, {0: 1, 1: 1})


class TestFigure9:
    """§8.3.2: reserved header values per topology, on every eighth
    zoo-like graph plus the one with the highest degree (it sets
    strategy 2's maximum).  Exact coloring stands in for the paper's
    ILP on small graphs, DSATUR above."""

    @staticmethod
    def values(graph, strategy):
        target = graph if strategy == 1 else square_graph(graph)
        if target.number_of_nodes() <= (200 if strategy == 1 else 60):
            coloring = exact_coloring(target, node_budget=300_000)
        else:
            coloring = greedy_coloring(target, GreedyOrder.DSATUR)
        assert is_proper_coloring(target, coloring)
        return num_colors(coloring)

    def test_one_reserved_field_needs_few_values(self):
        zoo = topology_zoo_like_corpus()
        widest = max(zoo, key=lambda g: max(d for _, d in g.degree))
        sample = [g for i, g in enumerate(zoo) if i % 8 == 0 or g is widest]
        one_per_switch = [g.number_of_nodes() for g in sample]
        strategy1 = [self.values(g, 1) for g in sample]
        strategy2 = [self.values(g, 2) for g in sample]
        assert max(strategy1) <= 9  # the paper's headline number
        assert max(strategy2) > 3 * max(strategy1)  # tracks max degree
        assert sum(strategy1) < sum(one_per_switch)
