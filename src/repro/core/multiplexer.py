"""The Multiplexer proxy and full-system deployment (paper §7).

The paper realizes Monocle as a chain of proxies: one *Monitor* per
switch plus a *Multiplexer* that "connects to Monitors of all monitored
switches and is responsible for forwarding their PacketOut/In messages
to/from the switch".  :class:`Multiplexer` does exactly that routing:

* probe injection: a Monitor probing switch X needs the probe to enter
  X on a specific port, so the Multiplexer sends a PacketOut to the
  *upstream* neighbor with the right output port;
* probe collection: a probe caught by downstream switch Z arrives on
  Z's control channel, where :meth:`MonocleSystem._from_switch` parses
  it once; the Multiplexer hands the parsed header, packed as one int,
  to the owning Monitor, translating Z's ingress port into the probed
  switch's egress port.

:class:`MonocleSystem` wires everything for a
:class:`~repro.network.network.Network`: computes the catching plan
(§6), pre-installs catching rules, builds a Monitor (+ optional
DynamicMonitor) per switch and interposes all control channels.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.core.catching import (
    CatchingPlan,
    ColoringAlgorithm,
    is_infrastructure,
    plan_catching_rules,
)
from repro.core.droppostpone import tag_drop_rule
from repro.core.dynamic import DynamicMonitor
from repro.core.monitor import Monitor, MonitorConfig
from repro.core.probegen import ProbeGenContext, ProbeGenerator
from repro.core.schedule import ProbeScheduler
from repro.obs import NULL_OBSERVER, NullObserver, Observer
from repro.openflow.actions import CONTROLLER_PORT
from repro.openflow.messages import Message, PacketIn, PacketOut
from repro.packets.parse import ParseError, parse_packet
from repro.packets.payload import ProbeMetadata
from repro.network.network import Network


class Multiplexer:
    """Routes probe PacketOut/PacketIn traffic between Monitors and
    switches."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: switch_number -> (node, Monitor), filled by MonocleSystem.
        self.monitors: dict[int, tuple[Hashable, Monitor]] = {}
        self.probes_routed = 0
        self.probes_unroutable = 0
        #: node -> ``network.upstream_options(node)``: switch links are
        #: final, and hosts join on ports the options leave out.
        self.upstream = {
            node: network.upstream_options(node) for node in network.switches
        }

    def register(self, node: Hashable, monitor: Monitor) -> None:
        """Register the Monitor responsible for a switch."""
        self.monitors[monitor.switch_number] = (node, monitor)

    def inject(
        self, probed_node: Hashable, packet: bytes, in_port: int
    ) -> None:
        """Make ``packet`` enter ``probed_node`` on ``in_port``.

        Sends a PacketOut to the upstream neighbor attached to that
        port.  Unroutable requests (no upstream switch there) are
        counted and dropped.
        """
        target = self.upstream[probed_node].get(in_port)
        if target is None:
            self.probes_unroutable += 1
            return
        upstream_node, upstream_port = target
        self.network.channel(upstream_node).send_down(
            PacketOut(payload=packet, out_port=upstream_port)
        )

    def route_packet_in(
        self,
        caught_at: Hashable,
        header: int,
        metadata: ProbeMetadata,
    ) -> bool:
        """Deliver a caught probe's parsed header to its owning Monitor.

        ``header`` is the packed header ``parse_packet`` returned, with
        the catching switch's ingress port as its ``in_port``.

        Returns True when the probe was routed; False when no Monitor
        owns it (stale or foreign traffic).
        """
        entry = self.monitors.get(metadata.switch_id)
        if entry is None:
            self.probes_unroutable += 1
            return False
        probed_node, monitor = entry
        egress_port = self._egress_port(probed_node, caught_at)
        if egress_port is None:
            self.probes_unroutable += 1
            return False
        self.probes_routed += 1
        monitor.handle_caught_probe(egress_port, header, metadata)
        return True

    def _egress_port(
        self, probed_node: Hashable, caught_at: Hashable
    ) -> int | None:
        if probed_node == caught_at:
            # The probed switch's own rule sent the packet to the
            # controller (e.g. a controller-bound production rule).
            return CONTROLLER_PORT
        return self.network.port_toward.get(probed_node, {}).get(caught_at)


class MonocleSystem:
    """Monocle deployed over an entire simulated network.

    Args:
        network: the wired network to monitor.
        plan: catching plan; computed (strategy 1, exact coloring) when
            omitted.
        config: monitoring configuration shared by all Monitors,
            checked before anything is built.
        dynamic: create a DynamicMonitor per switch so FlowMods are
            confirmed and acknowledged (§4).
        controller_handler: ``(node, message) -> None`` receiving
            non-probe upstream traffic and UpdateAcks.
        monitored_nodes: when given, build Monitors only for these
            switches (a sharded fleet worker owning one shard of a
            full-topology mirror).  Every switch still gets its catch
            rules and an up-handler — an owned switch's probes are
            caught at the local mirrors of unowned neighbors — but
            unowned switches get no Monitor, no production rules, and
            no probing.
    """

    def __init__(
        self,
        network: Network,
        plan: CatchingPlan | None = None,
        config: MonitorConfig = MonitorConfig(),
        dynamic: bool = True,
        controller_handler: Callable[[Hashable, Message], None] | None = None,
        use_drop_postponing: bool = False,
        obs: "Observer | NullObserver | None" = None,
        monitored_nodes: "Iterable[Hashable] | None" = None,
    ) -> None:
        config.check()
        self.network = network
        self.sim = network.sim
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.config = config
        self.controller_handler = controller_handler
        if plan is None:
            plan = plan_catching_rules(
                network.topology,
                strategy=1,
                algorithm=ColoringAlgorithm.EXACT,
            )
        self.plan = plan
        self.multiplexer = Multiplexer(network)
        self.monitors: dict[Hashable, Monitor] = {}
        self.dynamics: dict[Hashable, DynamicMonitor] = {}
        self.monitored_nodes = (
            frozenset(network.topology.nodes)
            if monitored_nodes is None
            else frozenset(monitored_nodes)
        )

        for node in sorted(network.topology.nodes, key=repr):
            self._deploy(node, dynamic, use_drop_postponing)

    def _deploy(
        self, node: Hashable, dynamic: bool, use_drop_postponing: bool
    ) -> None:
        network = self.network
        switch = network.switch(node)
        channel = network.channel(node)
        switch_facing = network.switch_facing_ports(node)

        # Pre-install the catching rules on every switch — monitored or
        # not — because a monitored switch's probes are caught at its
        # (possibly unmonitored) neighbors' tables.
        catch_rules = self.plan.catching_rules(node)
        if use_drop_postponing:
            # §4.3, Figure 3: every switch is some neighbor's tag-drop
            # point.  The rule ranks with the filter rules — below the
            # catch rule, so tagged probes still reach Monocle, and
            # never probed itself.
            catch_rules.append(tag_drop_rule())
        for rule in catch_rules:
            switch.install_directly(rule)
        channel.up_handler = lambda msg, n=node: self._from_switch(n, msg)
        if node not in self.monitored_nodes:
            return

        downstream = next(iter(network.topology.neighbors(node)), None)
        generator = ProbeGenerator(
            catch_match=self.plan.probe_match(node, downstream),
            valid_in_ports=tuple(switch_facing) if switch_facing else None,
        )
        # The catch rules are part of the expected table (the Hit
        # constraint).
        probe_context = ProbeGenContext(generator)
        for rule in catch_rules:
            probe_context.add_rule(rule)
        monitor = Monitor(
            sim=self.sim,
            node=node,
            switch_number=network.switch_number(node),
            generator=generator,
            config=self.config,
            observable_ports=frozenset(switch_facing) | {CONTROLLER_PORT},
            forward_down=channel.send_down,
            to_controller=self._to_controller,
            multiplexer=self.multiplexer,
            probe_context=probe_context,
            scheduler=ProbeScheduler(is_infrastructure=is_infrastructure),
            obs=self.obs,
        )
        self.monitors[node] = monitor
        self.multiplexer.register(node, monitor)
        if dynamic:
            neighbor_port = switch_facing[0] if switch_facing else None
            self.dynamics[node] = DynamicMonitor(
                monitor,
                use_drop_postponing=use_drop_postponing,
                drop_postpone_port=neighbor_port,
            )

    # ----- controller-facing API ----------------------------------------

    def send_to_switch(self, node: Hashable, msg: Message) -> None:
        """Entry point for the controller: goes through Monocle."""
        dynamic = self.dynamics.get(node)
        if dynamic is not None:
            dynamic.from_controller(msg)
        else:
            self.monitors[node].from_controller(msg)

    def monitor(self, node: Hashable) -> Monitor:
        """The Monitor for a switch."""
        return self.monitors[node]

    def dynamic(self, node: Hashable) -> DynamicMonitor:
        """The DynamicMonitor for a switch."""
        return self.dynamics[node]

    def start_steady_state(self) -> None:
        """Start the §3 monitoring cycle on every switch."""
        for monitor in self.monitors.values():
            monitor.start_steady_state()

    def preinstall_production_rule(self, node: Hashable, rule) -> None:
        """Install a production rule directly (pre-experiment setup),
        keeping switch and Monitor views consistent."""
        self.network.switch(node).install_directly(rule)
        self.monitors[node].preinstall(rule)

    # ----- internal routing ----------------------------------------------

    def _from_switch(self, node: Hashable, msg: Message) -> None:
        """Every upstream message of every switch lands here: the one
        place a PacketIn is parsed and classified as probe or not."""
        if isinstance(msg, PacketIn):
            probe = self._probe_metadata(msg)
            if probe is not None:
                self.multiplexer.route_packet_in(node, *probe)
                return
        monitor = self.monitors.get(node)
        if monitor is not None:
            monitor.from_switch(msg)

    @staticmethod
    def _probe_metadata(
        msg: PacketIn,
    ) -> tuple[int, ProbeMetadata] | None:
        """``(packed header, metadata)`` when the PacketIn is a probe."""
        try:
            header, payload = parse_packet(msg.payload, msg.in_port)
        except ParseError:
            return None
        metadata = ProbeMetadata.decode(payload)
        if metadata is None:
            return None
        return header, metadata

    def _to_controller(self, node: Hashable, msg: Message) -> None:
        if self.controller_handler is not None:
            self.controller_handler(node, msg)
