"""Turning a topology into a running, network-wide monitored deployment.

:class:`FleetDeployment` owns everything one fleet scenario needs: a
fresh :class:`~repro.sim.kernel.Simulator`, the wired
:class:`~repro.network.network.Network`, the catching plan (§6), one
Monitor (plus optional DynamicMonitor) per switch via
:class:`~repro.core.multiplexer.MonocleSystem`, and an
:class:`~repro.controller.controller.SdnController` whose messages flow
through Monocle.  Workloads and failure models operate on a deployment;
they never touch the wiring themselves.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Hashable, Iterable, Mapping

import networkx as nx

from repro.controller import ConfirmMode, SdnController
from repro.core.catching import ColoringAlgorithm, plan_catching_rules
from repro.core.monitor import Monitor, MonitorConfig
from repro.core.probegen import ProbeGenContextStats
from repro.core.multiplexer import MonocleSystem
from repro.fleet.metrics import live_series
from repro.network.network import Network
from repro.obs import NULL_OBSERVER, NullObserver, Observer
from repro.openflow.messages import Message
from repro.openflow.rule import Rule
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.switches.profiles import OVS, SwitchProfile
from repro.switches.switch import SimulatedSwitch

class FleetDeployment:
    """One topology, fully instrumented and ready to run.

    Args:
        topology: switch-level graph (from :mod:`repro.topology`).
        profiles: per-node profile, one profile for all, or a callable
            ``node -> profile`` (same contract as :class:`Network`).
        config: monitoring configuration shared by all Monitors.
        dynamic: interpose a DynamicMonitor per switch so FlowMods are
            confirmed and acknowledged (§4).
        seed: base seed for all deployment-level randomness; the
            network forks its own streams from the same value.
        obs: an :class:`~repro.obs.Observer` to thread through every
            layer (sim-time trace + metric snapshots of this
            deployment's scrape); defaults to the
            disabled :data:`~repro.obs.NULL_OBSERVER`, whose hot path
            is a single attribute read.
        monitored_nodes: when given, only these switches get Monitors,
            production rules, and workload activity — a sharded fleet
            worker builds the *full* topology (so port numbers, switch
            numbers, and the catching plan match every other worker)
            but owns just its shard.  ``None`` means own everything.
    """

    def __init__(
        self,
        topology: nx.Graph,
        profiles: SwitchProfile
        | Mapping[Hashable, SwitchProfile]
        | Callable[[Hashable], SwitchProfile] = OVS,
        config: MonitorConfig = MonitorConfig(),
        dynamic: bool = True,
        seed: int = 0,
        strategy: int = 1,
        algorithm: ColoringAlgorithm = ColoringAlgorithm.EXACT,
        obs: Observer | NullObserver | None = None,
        monitored_nodes: "Iterable[Hashable] | None" = None,
    ) -> None:
        if topology.number_of_nodes() == 0:
            raise ValueError("cannot deploy a fleet on an empty topology")
        self.topology = topology
        self._monitored_set = (
            frozenset(topology.nodes)
            if monitored_nodes is None
            else frozenset(monitored_nodes)
        )
        self.sim = Simulator()
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.obs.install(self.sim, functools.partial(live_series, self))
        self.seed = seed
        self.dynamic = dynamic
        self.rng = DeterministicRandom(seed).fork(0xF1EE7)
        self.network = Network(
            self.sim, topology, profiles=profiles, seed=seed
        )
        self.config = config
        self.plan = plan_catching_rules(
            topology, strategy=strategy, algorithm=algorithm
        )
        self.system = MonocleSystem(
            self.network,
            plan=self.plan,
            config=self.config,
            dynamic=dynamic,
            controller_handler=self._handle_upstream,
            obs=self.obs,
            monitored_nodes=self._monitored_set,
        )
        self.controller = SdnController(
            self.sim, send=self.system.send_to_switch
        )
        #: Production rules installed per node (workload bookkeeping);
        #: failure models pick their victims from here.
        self.production_rules: dict[Hashable, list[Rule]] = {
            node: [] for node in self.nodes
        }

    # ----- wiring ----------------------------------------------------------

    def _handle_upstream(self, node: Hashable, msg: Message) -> None:
        self.controller.handle_message(node, msg)

    # ----- accessors -------------------------------------------------------

    @property
    def nodes(self) -> list[Hashable]:
        """Topology nodes in the deployment's canonical (sorted) order."""
        return sorted(self.topology.nodes, key=repr)

    @property
    def monitored_nodes(self) -> list[Hashable]:
        """The nodes this deployment owns, in canonical order.

        Equal to :attr:`nodes` except in a sharded fleet worker, where
        it is the worker's shard of the full topology.
        """
        return sorted(self._monitored_set, key=repr)

    def owns(self, node: Hashable) -> bool:
        """Whether this deployment monitors (and drives) ``node``."""
        return node in self._monitored_set

    def monitor(self, node: Hashable) -> Monitor:
        """The Monitor watching ``node``."""
        return self.system.monitor(node)

    def switch(self, node: Hashable) -> SimulatedSwitch:
        """The simulated switch at ``node``."""
        return self.network.switch(node)

    @property
    def confirm_mode(self) -> ConfirmMode:
        """The strongest confirmation mode this deployment supports."""
        return ConfirmMode.MONOCLE_ACK if self.dynamic else ConfirmMode.NONE

    # ----- setup helpers ---------------------------------------------------

    def install_production_rule(self, node: Hashable, rule: Rule) -> Rule:
        """Pre-install a production rule (both planes + expected table)."""
        self.system.preinstall_production_rule(node, rule)
        self.production_rules[node].append(rule)
        return rule

    def neighbor_ports(self, node: Hashable) -> list[int]:
        """Switch-facing ports of ``node`` (observable egress candidates)."""
        return self.network.switch_facing_ports(node)

    # ----- lifecycle -------------------------------------------------------

    def start_monitoring(self) -> None:
        """Start the §3 steady-state cycle on every Monitor."""
        self.system.start_steady_state()

    def run(self, duration: float) -> None:
        """Advance the shared sim kernel by ``duration`` seconds."""
        self.sim.run_for(duration)

    def probegen_stats(self) -> ProbeGenContextStats:
        """Fleet-wide sum of every Monitor's probe-generation counters.

        The ratio of ``cache_hits`` + ``revalidations`` to
        ``probes_generated`` is the work the delta API saved over
        from-scratch generation.
        """
        parts = [
            self.monitor(node).probe_context.stats
            for node in self.monitored_nodes
        ]
        return ProbeGenContextStats(
            **{
                f.name: sum(getattr(part, f.name) for part in parts)
                for f in dataclasses.fields(ProbeGenContextStats)
            }
        )

    def __repr__(self) -> str:
        return (
            f"FleetDeployment({self.topology.number_of_nodes()} switches, "
            f"strategy={self.plan.strategy}, "
            f"{self.plan.num_reserved_values} reserved values, "
            f"dynamic={self.dynamic})"
        )
