"""Concrete experiment topologies.

Node naming conventions matter to the tests, examples and ``bench``
(they look switches up by name), so generators label nodes with
readable strings.
"""

from __future__ import annotations

import networkx as nx


def star(leaves: int = 4) -> nx.Graph:
    """The §8.1.1 topology: a probed switch ``hub`` with ``leaves``
    neighbors."""
    graph = nx.Graph()
    graph.add_node("hub")
    for i in range(leaves):
        graph.add_edge("hub", f"leaf{i}")
    return graph


def triangle() -> nx.Graph:
    """The §8.1.2 topology: S1, S2, S3 fully connected."""
    graph = nx.Graph()
    graph.add_edges_from([("s1", "s2"), ("s2", "s3"), ("s1", "s3")])
    return graph


def linear(length: int) -> nx.Graph:
    """A chain of ``length`` switches."""
    if length < 1:
        raise ValueError("need at least one switch")
    graph = nx.Graph()
    graph.add_node("sw0")
    for i in range(1, length):
        graph.add_edge(f"sw{i - 1}", f"sw{i}")
    return graph


def ring(length: int) -> nx.Graph:
    """A cycle of ``length`` switches."""
    if length < 3:
        raise ValueError("a ring needs at least three switches")
    graph = linear(length)
    graph.add_edge(f"sw{length - 1}", "sw0")
    return graph


def islands(size: int, island: int = 8) -> nx.Graph:
    """``size`` switches as disconnected rings of ``island`` switches.

    The cleanly partitionable fleet: a shard planner can cut between
    islands with zero cross-shard links, so sharded runs are
    barrier-free and byte-identical to single-process runs.  A final
    partial island becomes a ring when it has >= 3 switches, else a
    chain.  Node names: ``isl{i:02d}_sw{j}``.
    """
    if size < 1:
        raise ValueError("need at least one switch")
    if island < 1:
        raise ValueError("island size must be >= 1")
    graph = nx.Graph()
    for base in range(0, size, island):
        count = min(island, size - base)
        names = [f"isl{base // island:02d}_sw{j}" for j in range(count)]
        graph.add_nodes_from(names)
        for left, right in zip(names, names[1:]):
            graph.add_edge(left, right)
        if count >= 3:
            graph.add_edge(names[-1], names[0])
    return graph


def fat_tree(k: int = 4) -> nx.Graph:
    """A k-ary FatTree (k even): (k/2)^2 core, k*k/2 agg, k*k/2 edge.

    For ``k=4`` this is the 20-switch network of §8.4 (4 core + 8
    aggregation + 8 edge/ToR).  Node names: ``core{i}``,
    ``agg{pod}_{i}``, ``edge{pod}_{i}``.
    """
    if k < 2 or k % 2:
        raise ValueError("fat tree arity must be even and >= 2")
    half = k // 2
    graph = nx.Graph()
    cores = [f"core{i}" for i in range(half * half)]
    graph.add_nodes_from(cores)
    for pod in range(k):
        aggs = [f"agg{pod}_{i}" for i in range(half)]
        edges = [f"edge{pod}_{i}" for i in range(half)]
        for i, agg in enumerate(aggs):
            # Each aggregation switch connects to half of the cores.
            for j in range(half):
                graph.add_edge(agg, cores[i * half + j])
            for edge in edges:
                graph.add_edge(agg, edge)
    return graph
