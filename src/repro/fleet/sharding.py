"""Topology partitioning and cross-shard gossip bookkeeping.

A sharded fleet run (``ScenarioSpec(workers=N)``) splits the switch set
into *shards*, one worker process per shard.  This module holds the
pieces that are pure bookkeeping — no processes, no pipes — so they can
be unit-tested deterministically:

* :func:`plan_shards` cuts the topology, keeping connected
  neighborhoods together to minimize cross-shard links.  The
  resulting :class:`ShardPlan` knows every *cut edge* — a link whose
  endpoints live in different shards — which is what decides whether
  a run needs conservative-time barriers at all.
* :class:`GossipDirectory` is the coordinator-side fingerprint
  directory for cross-shard context dedup: shards advertise
  ``(generator key, table fingerprint)`` digests at each barrier, and
  when two shards advertise the same digest the directory has the
  richer one ship its solved probe cache to the other (shard-local
  solving, cross-shard cache-entry shipping — never a shared solver).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Hashable, Mapping

import networkx as nx

#: A cross-shard context identity: ``(generator_key(...), table
#: fingerprint)``.  Two contexts with equal digests were built from
#: value-identical generator configurations and hold tables with the
#: same rule multiset — the same test the in-process
#: ``SharedContextRegistry`` applies before sharing, minus the exact
#: rule-sequence check, which the importer re-verifies on delivery.
Digest = tuple[Any, str]

#: A gossip payload: the exporter's exact rule-signature sequence (the
#: importer must match it before adopting anything) plus the exported
#: ``(priority, match, result)`` cache entries.
GossipPayload = tuple[tuple[Any, ...], list[Any]]


def _sorted_nodes(topology: nx.Graph) -> list[Hashable]:
    return sorted(topology.nodes, key=repr)


def _bfs_order(topology: nx.Graph) -> list[Hashable]:
    """All nodes, BFS per connected component, fully deterministic.

    Components are visited in order of their smallest-``repr`` node and
    neighbors are expanded in sorted order, so the walk depends only on
    the graph — not on insertion order.
    """
    order: list[Hashable] = []
    seen: set[Hashable] = set()
    for start in _sorted_nodes(topology):
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

    @property
    def is_pure(self) -> bool:
        """No link crosses a shard boundary: runs barrier-free."""
        return not self.cut_edges

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

    Used to classify injections: a spec whose nodes span shards must be
    announced across the cut (the announcing shard fires it locally and
    ships an envelope so the peer applies its half at the next
    barrier).  Specs with no explicit nodes (random victim) stay
    shard-local by construction.
    """
    nodes: list[Hashable] = []
    for attr in ("node", "u", "v", "toward"):
        value = getattr(spec, attr, None)
        if value is not None:
            nodes.append(value)
    return nodes


@dataclass
class GossipDirectory:
    """Coordinator-side fingerprint directory (who holds which table).

    The two-window pipeline, all piggybacked on barrier traffic:

    1. each worker advertises ``{digest: fresh-cache size}`` in its
       window payload (:meth:`publish`);
    2. when a digest has two or more holders the directory asks the
       richest holder to export (:meth:`export_requests`, delivered in
       the next run command);
    3. the exporter ships ``(rule signatures, cache entries)`` in its
       following window payload (:meth:`receive_exports`);
    4. every *other* holder receives the payload with its next run
       command (:meth:`imports_for`), verifies the signature sequence
       against its current table, and adopts the entries.

    ``delivered`` keeps each (digest, shard) pair from being shipped
    twice; exporters are marked delivered up front so a shard never
    receives its own entries back.
    """

    holders: dict[Digest, dict[int, int]] = field(default_factory=dict)
    payloads: dict[Digest, GossipPayload] = field(default_factory=dict)
    delivered: set[tuple[Digest, int]] = field(default_factory=set)
    requested: set[Digest] = field(default_factory=set)
    digests_published: int = 0
    entries_shipped: int = 0

    def publish(self, shard: int, digests: Mapping[Digest, int]) -> None:
        """Record one worker's advertisement for this barrier window."""
        for digest, count in digests.items():
            self.digests_published += 1
            self.holders.setdefault(digest, {})[shard] = count

    def receive_exports(
        self, shard: int, exports: Mapping[Digest, GossipPayload]
    ) -> None:
        """Bank payloads a worker shipped in its window reply."""
        for digest, payload in exports.items():
            self.requested.discard(digest)
            if digest not in self.payloads:
                self.payloads[digest] = payload
                self.entries_shipped += len(payload[1])
            self.delivered.add((digest, shard))

    def export_requests(self) -> dict[int, list[Digest]]:
        """Digests worth shipping, keyed by the shard asked to export.

        A digest qualifies once two shards hold it and no payload or
        outstanding request exists; the richest holder (most fresh
        cache entries, lowest shard id on ties) pays the export.
        """
        requests: dict[int, list[Digest]] = {}
        for digest in sorted(self.holders, key=repr):
            holders = self.holders[digest]
            if (
                len(holders) < 2
                or digest in self.payloads
                or digest in self.requested
            ):
                continue
            exporter = min(holders, key=lambda s: (-holders[s], s))
            requests.setdefault(exporter, []).append(digest)
            self.requested.add(digest)
        return requests

    def imports_for(self, shard: int) -> dict[Digest, GossipPayload]:
        """Banked payloads this shard advertised for but never got."""
        out: dict[Digest, GossipPayload] = {}
        for digest in sorted(self.payloads, key=repr):
            if shard not in self.holders.get(digest, {}):
                continue
            if (digest, shard) in self.delivered:
                continue
            out[digest] = self.payloads[digest]
            self.delivered.add((digest, shard))
        return out
