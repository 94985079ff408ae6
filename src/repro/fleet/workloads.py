"""Composable workload generators for fleet scenarios.

Every workload is a small declarative object with a
:meth:`Workload.setup` hook called once against a
:class:`~repro.fleet.deployment.FleetDeployment` before the clock
starts.  All randomness flows through the deployment's seeded RNG, so a
scenario is a pure function of its spec + seed.

Destination-address blocks are partitioned per workload so rule sets
never collide with each other (or with the 10.0.0.0-33.0.0.0/8 space
the synthetic ACL tables draw from):

* ``0x60......`` steady-state forwarding rules,
* ``0x70......`` churn rules,
* ``0x80......`` background-traffic flows.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Hashable

from repro.controller import ConfirmMode
from repro.datasets.acl import AclProfile, generate_acl_table
from repro.fleet.deployment import FleetDeployment
from repro.network.traffic import FlowSpec, TrafficGenerator
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.rule import Rule

STEADY_DST_BASE = 0x60000000
CHURN_DST_BASE = 0x70000000
TRAFFIC_DST_BASE = 0x80000000


class Workload:
    """Base workload: installs state and/or schedules activity."""

    name = "workload"

    def check(self) -> None:
        """Raise ValueError if the workload is malformed whatever it is
        set up on (``ScenarioSpec.validate`` calls this before anything
        is built)."""

    def setup(self, deployment: FleetDeployment) -> None:
        """Install rules / schedule events on the deployment's kernel."""
        raise NotImplementedError

    def confirmation_latencies(self) -> list[float]:
        """Update-confirmation latencies this workload measured."""
        return []


@dataclass
class SteadyRules(Workload):
    """Per-switch L3 forwarding rules for the §3 steady-state cycle.

    Each switch gets ``rules_per_switch`` exact-match destination rules
    cycling over its switch-facing ports — the monitorable population
    the steady-state probing loop walks.
    """

    rules_per_switch: int = 20
    priority: int = 100
    name = "steady"

    def setup(self, deployment: FleetDeployment) -> None:
        for index, node in enumerate(deployment.nodes):
            # The dst block is keyed by the node's position in the
            # *full* deployment order, so a sharded worker (which only
            # installs on its own shard) builds byte-identical rules.
            if not deployment.owns(node):
                continue
            ports = deployment.neighbor_ports(node)
            if not ports:
                continue
            for i in range(self.rules_per_switch):
                rule = Rule(
                    priority=self.priority,
                    match=Match.build(
                        nw_dst=STEADY_DST_BASE + (index << 12) + i
                    ),
                    actions=output(ports[i % len(ports)]),
                )
                deployment.install_production_rule(node, rule)


@dataclass
class ChurnRecord:
    """One churn FlowMod's lifecycle (for confirmation-latency stats)."""

    node: Hashable
    op: str
    sent_at: float
    confirmed_at: float | None = None

    @property
    def latency(self) -> float | None:
        if self.confirmed_at is None:
            return None
        return self.confirmed_at - self.sent_at


@dataclass
class RuleChurn(Workload):
    """A Poisson stream of add/modify/delete FlowMods (§4 workload).

    Updates go through the controller with the deployment's strongest
    confirmation mode, so under ``dynamic=True`` every operation's
    confirmation latency is recorded in :attr:`records`.  A static
    deployment sends them unconfirmed: its records have none.

    Args:
        rate: operations per second across the whole fleet.
        start/stop: churn window on the sim clock (``stop=None`` runs
            for the entire scenario).
        mix: relative weights of (add, modify, delete).

    An add reuses the destination address of a rule deleted earlier on
    the same switch when there is one.  Real controllers churn a
    bounded rule population rather than an ever-growing address space.
    """

    rate: float = 50.0
    start: float = 0.1
    stop: float | None = None
    mix: tuple[float, float, float] = (0.6, 0.25, 0.15)
    priority: int = 200
    name = "churn"
    records: list[ChurnRecord] = field(default_factory=list)

    def check(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"churn rate must be positive: {self.rate}")

    def setup(self, deployment: FleetDeployment) -> None:
        self.check()
        self.records = []  # fresh per run; specs may be reused
        self._rng = deployment.rng.fork(0xC4)
        self._deployment = deployment
        self._next_dst = CHURN_DST_BASE
        # The topology is static: compute the eligible nodes and their
        # switch-facing ports once instead of re-sorting per operation.
        self._ports: dict[Hashable, list[int]] = {
            node: deployment.neighbor_ports(node) for node in deployment.nodes
        }
        self._nodes = [n for n, ports in self._ports.items() if ports]
        #: Live churn rules per node: match -> out port.
        self._live: dict[Hashable, dict[Match, int]] = {
            node: {} for node in deployment.nodes
        }
        #: Each node's live matches as ``(repr, match)`` in repr order:
        #: the list a modify or delete draws from, kept sorted by
        #: bisection, each repr computed once, when its match goes live.
        self._drawn: dict[Hashable, list[tuple[str, Match]]] = {
            node: [] for node in deployment.nodes
        }
        #: Matches freed by deletes, reused by later adds.
        self._free: dict[Hashable, list[Match]] = {
            node: [] for node in deployment.nodes
        }
        deployment.sim.at(self.start, self._tick)

    # ----- event loop -------------------------------------------------

    def _tick(self) -> None:
        sim = self._deployment.sim
        if self.stop is not None and sim.now >= self.stop:
            return
        self._one_operation()
        sim.schedule(self._rng.expovariate(self.rate), self._tick)

    def _one_operation(self) -> None:
        if not self._nodes:
            return
        node = self._rng.choice(self._nodes)
        total = sum(self.mix)
        roll = self._rng.uniform(0.0, total)
        if roll < self.mix[0] or not self._live[node]:
            self._send(node, "add", *self._build_add(node))
        elif roll < self.mix[0] + self.mix[1]:
            self._send(node, "modify", *self._build_modify(node))
        else:
            self._send(node, "delete", *self._build_delete(node))

    def _build_add(self, node: Hashable) -> tuple[Match, FlowMod]:
        ports = self._ports[node]
        if self._free[node]:
            match = self._free[node].pop()
        else:
            match = Match.build(nw_dst=self._next_dst)
            self._next_dst += 1
        port = self._rng.choice(ports)
        self._live[node][match] = port
        insort(self._drawn[node], (repr(match), match))  # no two reprs are equal
        return match, FlowMod(
            command=FlowModCommand.ADD,
            match=match,
            priority=self.priority,
            actions=output(port),
        )

    def _build_modify(self, node: Hashable) -> tuple[Match, FlowMod]:
        _, match = self._rng.choice(self._drawn[node])
        ports = self._ports[node]
        others = [p for p in ports if p != self._live[node][match]]
        port = self._rng.choice(others) if others else self._live[node][match]
        self._live[node][match] = port
        return match, FlowMod(
            command=FlowModCommand.MODIFY_STRICT,
            match=match,
            priority=self.priority,
            actions=output(port),
        )

    def _build_delete(self, node: Hashable) -> tuple[Match, FlowMod]:
        drawn = self._drawn[node]
        key, match = self._rng.choice(drawn)
        del self._live[node][match]
        del drawn[bisect_left(drawn, (key,))]
        self._free[node].append(match)
        return match, FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=match,
            priority=self.priority,
        )

    def _send(
        self, node: Hashable, op: str, match: Match, mod: FlowMod
    ) -> None:
        deployment = self._deployment
        if not deployment.owns(node):
            # Sharded worker: every worker runs the *full* fleet-wide
            # churn bookkeeping (RNG draws, live/free tracking, FlowMod
            # construction) so its stream is an exact restriction of
            # the global one — only the send is ownership-gated.  The
            # per-shard record lists then partition the global list.
            return
        record = ChurnRecord(node=node, op=op, sent_at=deployment.sim.now)
        self.records.append(record)
        mode = deployment.confirm_mode

        def confirmed() -> None:
            record.confirmed_at = deployment.sim.now

        # Fire and forget confirms nothing: the controller would call
        # back at send time and record a 0 s latency.
        deployment.controller.send_flowmod(
            node, mod, confirm=mode,
            on_confirmed=None if mode is ConfirmMode.NONE else confirmed,
        )

    # ----- stats ------------------------------------------------------

    def confirmation_latencies(self) -> list[float]:
        """Latencies of all confirmed operations, in send order."""
        return [
            latency
            for r in self.records
            if (latency := r.latency) is not None
        ]


@dataclass
class AclTables(Workload):
    """Populate selected switches with ClassBench-style ACL tables.

    A scaled-down :class:`~repro.datasets.acl.AclProfile` keeps the
    steady-state cycle short while preserving the structural mix
    (shadowed / redundant / deny rules) that §3.5 cares about.  Rules
    land on the first ``num_switches`` nodes of the deployment order.
    """

    num_switches: int = 1
    rules_per_table: int = 40
    seed_salt: int = 0xAC1
    name = "acl"

    def setup(self, deployment: FleetDeployment) -> None:
        for index, node in enumerate(deployment.nodes[: self.num_switches]):
            if not deployment.owns(node):
                continue
            ports = deployment.neighbor_ports(node)
            if not ports:
                continue
            profile = AclProfile(
                name=f"fleet-acl-{node}",
                num_rules=self.rules_per_table,
                dst_universes=4,
                p_src=0.35,
                p_proto=0.45,
                p_port=0.55,
                p_drop=0.25,
                shadow_fraction=0.05,
                redundant_fraction=0.04,
                num_ports=len(ports),
                default_drop=False,
            )
            table = generate_acl_table(
                profile, seed=deployment.seed + self.seed_salt + index
            )
            for rule in table:
                # The generator emits ports 1..num_ports; remap them to
                # this switch's actual switch-facing ports.
                remapped = frozenset(
                    ports[(p - 1) % len(ports)] for p in rule.forwarding_set()
                )
                if remapped and remapped != rule.forwarding_set():
                    rule = rule.with_actions(output(min(remapped)))
                deployment.install_production_rule(node, rule)


@dataclass
class BackgroundTraffic(Workload):
    """Constant-rate data-plane flows between hosts on adjacent switches.

    Exercises the fabric under monitoring: forwarding rules compete with
    probes for PacketIn/PacketOut budget on the traversed switches.
    """

    flows: int = 4
    rate: float = 100.0
    priority: int = 300
    name = "traffic"
    generators: list[TrafficGenerator] = field(default_factory=list)
    sinks: list = field(default_factory=list)

    def setup(self, deployment: FleetDeployment) -> None:
        self.generators = []  # fresh per run; specs may be reused
        self.sinks = []
        edges = sorted(
            deployment.topology.edges, key=lambda e: (repr(e[0]), repr(e[1]))
        )
        if not edges:
            return
        rng = deployment.rng.fork(0x7F)
        for i in range(self.flows):
            u, v = edges[i % len(edges)]
            # Draw the jitter before the ownership gate so every
            # sharded worker's RNG stream stays aligned with the
            # single-process run.  Flows whose endpoints span shards
            # are skipped entirely: data-plane traffic does not cross
            # the shard channel (a documented sharding limitation).
            jitter = rng.uniform(0.0, 1.0 / self.rate)
            if not (deployment.owns(u) and deployment.owns(v)):
                continue
            src = deployment.network.add_host(f"src{i}", u)
            dst = deployment.network.add_host(f"dst{i}", v)
            dst_addr = TRAFFIC_DST_BASE + i
            match = Match.build(dl_type=0x0800, nw_proto=17, nw_dst=dst_addr)
            deployment.install_production_rule(
                u,
                Rule(
                    priority=self.priority,
                    match=match,
                    actions=output(deployment.network.port_toward[u][v]),
                ),
            )
            deployment.install_production_rule(
                v,
                Rule(
                    priority=self.priority,
                    match=match,
                    actions=output(
                        deployment.network.port_toward[v][f"dst{i}"]
                    ),
                ),
            )
            spec = FlowSpec(
                flow_id=i,
                header_fields=(
                    ("dl_type", 0x0800),
                    ("nw_proto", 17),
                    ("nw_dst", dst_addr),
                ),
            )
            generator = TrafficGenerator(deployment.sim, src, spec, self.rate)
            generator.start(jitter=jitter)
            self.generators.append(generator)
            self.sinks.append(dst)
