"""Topology partitioning for the sharded fleet runtime.

A fleet run splits the switch set into *shards*, one
:class:`~repro.fleet.shardworker.ShardWorker` per shard.  This module
holds the pieces that are pure bookkeeping — no processes, no pipes — so
they can be unit-tested deterministically:

* :func:`plan_shards` cuts the topology, keeping connected
  neighborhoods together to minimize cross-shard links.  The
  resulting :class:`ShardPlan` knows every *cut edge* — a link whose
  endpoints live in different shards (the report's ``cut links``).
* :func:`spec_nodes` names the switches a failure spec references, which
  decides which shards arm it: every shard that owns one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

import networkx as nx


def _bfs_order(topology: nx.Graph) -> list[Hashable]:
    """All nodes, BFS per connected component, fully deterministic.

    Components are visited in order of their smallest-``repr`` node and
    neighbors are expanded in sorted order, so the walk depends only on
    the graph — not on insertion order.
    """
    order: list[Hashable] = []
    seen: set[Hashable] = set()
    for start in sorted(topology.nodes, key=repr):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            node = queue.pop(0)
            order.append(node)
            for neighbor in sorted(topology.neighbors(node), key=repr):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
    return order


def _locality(topology: nx.Graph, workers: int) -> list[list[Hashable]]:
    """Chunk a component-wise BFS order into contiguous slices.

    Neighbors end up in the same chunk unless the chunk boundary lands
    on them, so disconnected islands (and long chains) shard with zero
    or few cut links.
    """
    order = _bfs_order(topology)
    base, extra = divmod(len(order), workers)
    shards: list[list[Hashable]] = []
    at = 0
    for shard in range(workers):
        size = base + (1 if shard < extra else 0)
        shards.append(order[at : at + size])
        at += size
    return shards


@dataclass(frozen=True)
class ShardPlan:
    """An immutable assignment of every switch to one shard."""

    shards: tuple[tuple[Hashable, ...], ...]
    cut_edges: tuple[tuple[Hashable, Hashable], ...]

    @property
    def workers(self) -> int:
        return len(self.shards)

    @cached_property
    def _owners(self) -> dict[Hashable, int]:
        return {
            node: shard
            for shard, nodes in enumerate(self.shards)
            for node in nodes
        }

    def owner(self, node: Hashable) -> int:
        """The shard index owning ``node`` (KeyError when unknown)."""
        return self._owners[node]


def plan_shards(topology: nx.Graph, workers: int) -> ShardPlan:
    """Partition ``topology`` into at most ``workers`` shards.

    ``workers`` is clamped to the node count (an empty shard would be a
    worker process with nothing to simulate), and the cut-edge set is
    derived here once so callers never re-scan the topology.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    workers = min(workers, topology.number_of_nodes())
    shards = tuple(tuple(nodes) for nodes in _locality(topology, workers))
    owners = {
        node: shard for shard, nodes in enumerate(shards) for node in nodes
    }
    cut = sorted(
        (
            tuple(sorted((u, v), key=repr))
            for u, v in topology.edges
            if owners[u] != owners[v]
        ),
        key=repr,
    )
    return ShardPlan(
        shards=shards,
        cut_edges=tuple(cut),  # type: ignore[arg-type]
    )


def spec_nodes(spec: object) -> list[Hashable]:
    """The topology nodes a failure spec explicitly references.

    A shard arms the specs that reference a switch it owns, so a spec
    whose nodes span shards (a link failure across the cut) is armed
    once by each adjacent shard.
    """
    nodes: list[Hashable] = []
    for attr in ("node", "u", "v"):
        value = getattr(spec, attr, None)
        if value is not None:
            nodes.append(value)
    return nodes
