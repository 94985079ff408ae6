"""Coloring validation helpers (used by tests and the catching planner)."""

from __future__ import annotations

import networkx as nx


def is_proper_coloring(graph: nx.Graph, coloring: dict) -> bool:
    """True when all nodes are colored and no edge is monochromatic."""
    for node in graph.nodes:
        if node not in coloring:
            return False
    for u, v in graph.edges:
        if u != v and coloring[u] == coloring[v]:
            return False
    return True
