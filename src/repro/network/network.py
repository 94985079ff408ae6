"""Building a full simulated network from a topology graph.

The :class:`Network` assigns ports, creates switches, links and control
channels, attaches hosts, and exposes the lookup maps Monocle needs
(which port of switch X faces switch Y, which ports are switch-facing).
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

import networkx as nx

from repro.network.channel import ControlChannel
from repro.network.conditioning import ChannelConditioner
from repro.network.host import Host
from repro.network.link import Link
from repro.packets.craft import craft_packet
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.switches.profiles import OVS, SwitchProfile
from repro.switches.switch import SimulatedSwitch


class Network:
    """Switches, links, hosts and channels for one topology.

    Args:
        sim: the simulation kernel.
        topology: switch-level graph; node ids become switch ids
            (mapped to integers in sorted order for packet metadata).
        profiles: per-node profile, a single profile for all, or a
            callable ``node -> profile``.
        seed: base seed for all per-switch randomness.

    Links and control channels run at their modules' default one-way
    latencies.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: nx.Graph,
        profiles: SwitchProfile
        | Mapping[Hashable, SwitchProfile]
        | Callable[[Hashable], SwitchProfile] = OVS,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.rng = DeterministicRandom(seed)

        self.switches: dict[Hashable, SimulatedSwitch] = {}
        self.channels: dict[Hashable, ControlChannel] = {}
        self.links: dict[frozenset, Link] = {}
        self.hosts: dict[str, Host] = {}
        #: port_toward[u][v] = the port on u that faces v.
        self.port_toward: dict[Hashable, dict[Hashable, int]] = {}
        #: neighbor_on_port[u][p] = the node (switch or host name) on u's port p.
        self.neighbor_on_port: dict[Hashable, dict[int, Hashable]] = {}
        self._next_port: dict[Hashable, int] = {}
        self._switch_numbers: dict[Hashable, int] = {
            node: i + 1 for i, node in enumerate(
                sorted(topology.nodes, key=repr)
            )
        }

        def profile_of(node: Hashable) -> SwitchProfile:
            if callable(profiles):
                return profiles(node)
            if isinstance(profiles, SwitchProfile):
                return profiles
            return profiles[node]

        max_ports = max(
            (topology.degree[n] for n in topology.nodes), default=0
        ) + 16  # headroom for hosts
        for node in sorted(topology.nodes, key=repr):
            self.switches[node] = SimulatedSwitch(
                sim,
                switch_id=self._switch_numbers[node],
                profile=profile_of(node),
                rng=self.rng.fork(self._switch_numbers[node]),
                num_ports=max_ports,
            )
            self.port_toward[node] = {}
            self.neighbor_on_port[node] = {}
            self._next_port[node] = 1
            # Every channel owns a conditioner with a stream forked by
            # switch number: chaos draws are independent per switch and
            # per direction, and a degradation can land on any channel
            # at any time.  Until one does the channel never calls it.
            conditioner = ChannelConditioner(
                self.rng.fork(0xC0FD00 + self._switch_numbers[node])
            )
            channel = ControlChannel(sim, conditioner=conditioner)
            channel.down_handler = self.switches[node].receive_message
            self.switches[node].send_to_controller = channel.send_up
            self.channels[node] = channel

        for u, v in sorted(
            topology.edges, key=lambda e: (repr(e[0]), repr(e[1]))
        ):
            self._wire_link(u, v)

    # ----- wiring ----------------------------------------------------------

    def _alloc_port(self, node: Hashable) -> int:
        port = self._next_port[node]
        self._next_port[node] = port + 1
        return port

    def _wire_link(self, u: Hashable, v: Hashable) -> None:
        port_u = self._alloc_port(u)
        port_v = self._alloc_port(v)
        link = Link(self.sim)
        switch_u = self.switches[u]
        switch_v = self.switches[v]
        # Switch to switch the link carries the parsed frame.
        link.connect(
            a_handler=lambda frame, s=switch_u, p=port_u: s.inject(frame, p),
            b_handler=lambda frame, s=switch_v, p=port_v: s.inject(frame, p),
        )
        switch_u.attach_port(port_u, link.send_from_a)
        switch_v.attach_port(port_v, link.send_from_b)
        self.links[frozenset((u, v))] = link
        self.port_toward[u][v] = port_u
        self.port_toward[v][u] = port_v
        self.neighbor_on_port[u][port_u] = v
        self.neighbor_on_port[v][port_v] = u

    def add_host(self, name: str, switch: Hashable) -> Host:
        """Attach a new host to an edge port of ``switch``."""
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self.sim, name)
        port = self._alloc_port(switch)
        link = Link(self.sim)
        sw = self.switches[switch]
        # Endpoint A receives what the switch-side sends and vice versa:
        # the host transmits from the B side (delivering to the switch),
        # the switch emits from the A side (delivering to the host).
        # A host NIC reads bytes: parsed on the way in, crafted out.
        link.connect(
            a_handler=lambda raw, s=sw, p=port: s.inject_raw(raw, p),
            b_handler=host.receive,
        )
        host.transmit = link.send_from_b
        sw.attach_port(
            port, lambda frame: link.send_from_a(craft_packet(*frame))
        )
        self.hosts[name] = host
        self.port_toward[switch][name] = port
        self.neighbor_on_port[switch][port] = name
        return host

    # ----- queries -----------------------------------------------------------

    def switch(self, node: Hashable) -> SimulatedSwitch:
        """The simulated switch for a topology node."""
        return self.switches[node]

    def switch_number(self, node: Hashable) -> int:
        """Integer id used in probe metadata for this node."""
        return self._switch_numbers[node]

    def channel(self, node: Hashable) -> ControlChannel:
        """The control channel of a node's switch."""
        return self.channels[node]

    def conditioner(self, node: Hashable) -> ChannelConditioner:
        """The chaos conditioner on a node's control channel."""
        conditioner = self.channels[node].conditioner
        if conditioner is None:  # pragma: no cover - Network always wires one
            raise ValueError(f"channel of {node!r} has no conditioner")
        return conditioner

    def link_between(self, u: Hashable, v: Hashable) -> Link:
        """The link connecting two adjacent switches."""
        return self.links[frozenset((u, v))]

    def switch_facing_ports(self, node: Hashable) -> list[int]:
        """Ports of ``node`` that lead to other switches (not hosts)."""
        return sorted(
            port
            for port, nbr in self.neighbor_on_port[node].items()
            if nbr in self.switches
        )

    def upstream_options(
        self, node: Hashable
    ) -> dict[int, tuple[Hashable, int]]:
        """For each switch-facing in_port ``p`` of ``node``: the neighbor
        and the neighbor's port that emits into ``p``.

        This is what probe injection needs: to make a probe enter
        ``node`` on port ``p``, PacketOut on the neighbor's port.
        """
        return {
            port: (nbr, self.port_toward[nbr][node])
            for port, nbr in self.neighbor_on_port[node].items()
            if nbr in self.switches
        }

    def fail_link(self, u: Hashable, v: Hashable) -> None:
        """Fail the link between two switches (both directions).

        Emissions at both switches toward the dead link are also
        suppressed so no traffic crosses.
        """
        self.link_between(u, v).fail()

    def __repr__(self) -> str:
        return (
            f"Network({len(self.switches)} switches, "
            f"{len(self.links)} links, {len(self.hosts)} hosts)"
        )
