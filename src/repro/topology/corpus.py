"""A synthetic topology corpus for the Figure 9 experiment.

The paper evaluates catching-rule overhead on the 261 Internet Topology
Zoo graphs (and 10 Rocketfuel ISP maps).  That dataset is not shipped
here, so we synthesize a corpus with matched structural statistics —
the quantities Figure 9 actually depends on:

* **size distribution**: Topology Zoo graphs are mostly small (median
  ~21 nodes) with a heavy tail up to 754.
* **sparsity / degree structure**: ISP topologies are near-planar
  meshes (average degree ~2-3) with occasional hubs; their chromatic
  numbers stay small (the paper finds <= 9 colors suffice for all of
  them), while squared-graph chromatic numbers track the max degree
  (up to 59 on the zoo).

Zoo-like graphs: a random spanning tree over waypoints plus a few
shortcut edges (ring/mesh flavour).
"""

from __future__ import annotations

import functools

import networkx as nx

from repro.sim.random import DeterministicRandom

#: Size profile echoing the Topology Zoo (most graphs small, tail to 754).
_ZOO_SIZE_BUCKETS = (
    (4, 15, 90),  # (min_nodes, max_nodes, count)
    (16, 40, 105),
    (41, 90, 45),
    (91, 200, 15),
    (201, 754, 6),
)


def _tree_plus_shortcuts(
    n: int, extra_edge_fraction: float, rng: DeterministicRandom
) -> nx.Graph:
    """A random tree over ``n`` nodes plus a fraction of shortcut edges."""
    graph = nx.Graph()
    graph.add_node(0)
    for node in range(1, n):
        # Attach to a uniformly random existing node: random recursive
        # tree, whose degree distribution is close to zoo topologies.
        parent = rng.randint(0, node - 1)
        graph.add_edge(node, parent)
    extra = int(extra_edge_fraction * n)
    attempts = 0
    while extra > 0 and attempts < 20 * n:
        attempts += 1
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            extra -= 1
    return graph


@functools.lru_cache(maxsize=None)
def topology_zoo_like_corpus(seed: int = 2015) -> list[nx.Graph]:
    """261 synthetic graphs with Topology-Zoo-like structure.

    Each graph's ``graph['name']`` identifies it (``zoo000`` ...).

    The corpus for a given seed is generated once per process and
    cached (the fleet runner, examples and tests index into it
    repeatedly); treat the returned list and its graphs as read-only.
    """
    rng = DeterministicRandom(seed)
    graphs: list[nx.Graph] = []
    index = 0
    for min_nodes, max_nodes, count in _ZOO_SIZE_BUCKETS:
        for _ in range(count):
            n = rng.randint(min_nodes, max_nodes)
            # Sparser shortcuts on big graphs, denser on small rings.
            fraction = rng.uniform(0.05, 0.35)
            graph = _tree_plus_shortcuts(n, fraction, rng.fork(index))
            graph.graph["name"] = f"zoo{index:03d}"
            graphs.append(graph)
            index += 1
    return graphs
