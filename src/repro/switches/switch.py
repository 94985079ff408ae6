"""The simulated OpenFlow switch.

Separates the *control plane* (a serial message processor with
per-message costs from the :class:`~repro.switches.profiles.SwitchProfile`)
from the *data plane* (a flow table that lags behind by the behaviour
model's install delay).  This split is what lets the reproduction
exhibit the transient control/data-plane inconsistencies the paper
monitors for.

Fault injection (silently removing or corrupting data-plane rules,
failing ports) implements the §8.1.1 failure scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.openflow.actions import CONTROLLER_PORT, ActionList
from repro.openflow.fields import FieldName
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FlowMod,
    FlowModCommand,
    Message,
    PacketIn,
    PacketOut,
)
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable
from repro.packets.craft import CraftError, craft_packet, wire_header
from repro.packets.parse import ParseError, parse_packet
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.switches.behavior import Behavior, behavior_for
from repro.switches.profiles import OVS, SwitchProfile

#: Data-plane forwarding latency through the switch fabric (seconds).
FABRIC_LATENCY = 0.0001

#: A packet inside the simulated data plane: the header the wire would
#: carry (:func:`~repro.packets.craft.wire_header`) and the payload.
#: Bytes exist only where something real reads them: PacketOut in,
#: PacketIn out, host NICs.  A frame belongs to its last receiver.
Frame = tuple[dict[FieldName, int], bytes]


def apply_flowmod(table: FlowTable, mod: FlowMod) -> list[Rule]:
    """Apply OpenFlow 1.0 FlowMod semantics to a table.

    Returns the rules that were installed (for ADD/MODIFY) or removed
    (for DELETE); used by callers tracking expected state.
    """
    command = mod.command
    if command is FlowModCommand.ADD:
        rule = Rule(
            priority=mod.priority,
            match=mod.match,
            actions=mod.actions,
            cookie=mod.cookie,
        )
        table.install(rule)
        return [rule]
    if command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
        if command is FlowModCommand.MODIFY_STRICT:
            targets: list[Rule] = []
            existing = table.get(mod.priority, mod.match)
            if existing is not None:
                targets = [existing]
        else:
            targets = table.covered_rules(mod.match)
        if not targets:
            # Per OF 1.0: MODIFY with no matching rule behaves like ADD.
            rule = Rule(
                priority=mod.priority,
                match=mod.match,
                actions=mod.actions,
                cookie=mod.cookie,
            )
            table.install(rule)
            return [rule]
        updated: list[Rule] = []
        for target in targets:
            new_rule = target.with_actions(mod.actions)
            table.install(new_rule)
            updated.append(new_rule)
        return updated
    if command is FlowModCommand.DELETE:
        return table.remove_matching(mod.match)
    if command is FlowModCommand.DELETE_STRICT:
        return table.remove_matching(mod.match, strict_priority=mod.priority)
    raise ValueError(f"unknown FlowMod command {command}")


@dataclass
class SwitchStats:
    """Per-switch counters (Figures 6 and 7 read ``flowmods_processed``,
    ``tests/test_profiles_behavior.py``)."""

    flowmods_processed: int = 0
    packetouts_processed: int = 0
    barriers_processed: int = 0
    installs_blackholed: int = 0
    packetins_sent: int = 0
    packetins_dropped: int = 0
    packets_forwarded: int = 0
    packets_dropped: int = 0
    parse_errors: int = 0


class SimulatedSwitch:
    """One switch: serial control plane + lagging data plane.

    Wiring: the network attaches per-port packet handlers via
    :meth:`attach_port`; the control channel sets
    :attr:`send_to_controller` and delivers messages through
    :meth:`receive_message`.
    """

    def __init__(
        self,
        sim: Simulator,
        switch_id: int,
        profile: SwitchProfile = OVS,
        rng: DeterministicRandom | None = None,
        num_ports: int = 48,
        behavior: Behavior | None = None,
    ) -> None:
        self.sim = sim
        self.switch_id = switch_id
        self.profile = profile
        self.rng = rng if rng is not None else DeterministicRandom(switch_id)
        self.behavior = (
            behavior
            if behavior is not None
            else behavior_for(profile, self.rng.fork(1))
        )
        self.num_ports = num_ports

        #: Rules the control plane has accepted (what the switch reports).
        self.control_table = FlowTable(check_overlap=False)
        #: Rules the data plane actually applies.
        self.dataplane = FlowTable(check_overlap=False)

        self.stats = SwitchStats()
        self.send_to_controller: Callable[[Message], None] | None = None
        self._ports: dict[int, Callable[[Frame], None]] = {}

        # Control-plane serial processor state.
        self._queue: list[Message] = []
        self._busy = False
        self._stolen_cpu = 0.0  # PacketIn interference, consumed lazily
        self._pending_installs = 0
        self._last_install_time = 0.0
        self._install_seq = 0
        self._blackholed_xids: set[int] = set()

        # PacketIn token bucket.
        self._pi_tokens = profile.packetin_rate
        self._pi_last_refill = sim.now

    # ----- wiring ----------------------------------------------------------

    def attach_port(self, port: int, handler: Callable[[Frame], None]) -> None:
        """Connect ``port`` to a link; handler receives egress frames
        (a peer's :meth:`inject` as they are, a host edge crafts bytes)."""
        if not 1 <= port <= self.num_ports:
            raise ValueError(f"port {port} out of range 1..{self.num_ports}")
        self._ports[port] = handler

    # ----- control plane ------------------------------------------------

    def receive_message(self, msg: Message) -> None:
        """Called by the control channel when a message arrives."""
        self._queue.append(msg)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        msg = self._queue[0]
        cost = self._processing_cost(msg) + self._stolen_cpu
        self._stolen_cpu = 0.0
        self.sim.schedule(cost, self._finish_current)

    def _processing_cost(self, msg: Message) -> float:
        if isinstance(msg, FlowMod):
            return self.profile.flowmod_cost
        if isinstance(msg, PacketOut):
            return self.profile.packetout_cost
        if isinstance(msg, BarrierRequest):
            return self.profile.barrier_cost
        return self.profile.barrier_cost  # echoes and friends are cheap

    def _finish_current(self) -> None:
        msg = self._queue.pop(0)
        if isinstance(msg, FlowMod):
            self._complete_flowmod(msg)
        elif isinstance(msg, PacketOut):
            self._complete_packetout(msg)
        elif isinstance(msg, BarrierRequest):
            self._complete_barrier(msg)
        elif isinstance(msg, EchoRequest):
            self._reply(EchoReply(xid=msg.xid))
        self._start_next()

    def _complete_flowmod(self, mod: FlowMod) -> None:
        self.stats.flowmods_processed += 1
        apply_flowmod(self.control_table, mod)
        delay = self.behavior.install_delay()
        if self.behavior.preserves_order():
            # In-order switches cannot apply an install before earlier
            # ones; enforce monotonic data-plane apply times.
            apply_at = max(self.sim.now + delay, self._last_install_time)
            self._last_install_time = apply_at
        else:
            apply_at = self.sim.now + delay
        self._pending_installs += 1
        self._install_seq += 1
        self.sim.at(apply_at, lambda m=mod: self._apply_to_dataplane(m))

    def _apply_to_dataplane(self, mod: FlowMod) -> None:
        self._pending_installs -= 1
        if mod.xid in self._blackholed_xids:
            self._blackholed_xids.discard(mod.xid)
            self.stats.installs_blackholed += 1
            return
        apply_flowmod(self.dataplane, mod)

    def _complete_packetout(self, msg: PacketOut) -> None:
        self.stats.packetouts_processed += 1
        frame = self._parse(msg.payload, in_port=0)
        if frame is not None:
            self._emit(frame, msg.out_port)

    def _complete_barrier(self, msg: BarrierRequest) -> None:
        self.stats.barriers_processed += 1
        if (
            self.behavior.barrier_waits_for_dataplane()
            and self._pending_installs > 0
        ):
            # Honest switch: hold the reply until the data plane caught
            # up with everything accepted so far.
            self._wait_for_dataplane(msg)
        else:
            self._reply(BarrierReply(xid=msg.xid))

    def _wait_for_dataplane(self, msg: BarrierRequest) -> None:
        if self._pending_installs == 0:
            self._reply(BarrierReply(xid=msg.xid))
        else:
            self.sim.schedule(0.0005, lambda: self._wait_for_dataplane(msg))

    def _reply(self, msg: Message) -> None:
        if self.send_to_controller is not None:
            self.send_to_controller(msg)

    # ----- data plane ------------------------------------------------------

    def _parse(self, raw: bytes, in_port: int) -> Frame | None:
        """Bytes enter the data plane (PacketOut payload, host NIC)."""
        try:
            return parse_packet(raw, in_port=in_port)
        except ParseError:
            self.stats.parse_errors += 1
            return None

    def inject_raw(self, raw: bytes, in_port: int) -> None:
        """Packet bytes arrive on ``in_port`` (an edge port's host)."""
        frame = self._parse(raw, in_port)
        if frame is not None:
            self.inject(frame, in_port)

    def inject(self, frame: Frame, in_port: int) -> None:
        """A packet arrives on ``in_port`` (from a peer switch's link)."""
        values, payload = frame
        values[FieldName.IN_PORT] = in_port
        outcome = self.dataplane.process(
            values, ecmp_chooser=self._choose_ecmp_port
        )
        if outcome.is_drop():
            self.stats.packets_dropped += 1
            return
        for port, header_items in outcome.emissions:
            try:
                # in_port is not meaningful on egress: carried as 0.
                out = (wire_header(dict(header_items)), payload)
            except CraftError:  # a rewrite left it no wire form
                self.stats.packets_dropped += 1
                continue
            if port == CONTROLLER_PORT:
                self.sim.schedule(
                    FABRIC_LATENCY,
                    lambda f=out, p=in_port: self._emit_packetin(f, p),
                )
            else:
                self.sim.schedule(
                    FABRIC_LATENCY, lambda p=port, f=out: self._emit(f, p)
                )

    def _choose_ecmp_port(self, rule: Rule) -> int:
        return self.rng.choose(sorted(rule.forwarding_set()))

    def _emit(self, frame: Frame, port: int) -> None:
        if port == CONTROLLER_PORT:
            self._emit_packetin(frame, in_port=0)
            return
        handler = self._ports.get(port)
        if handler is None:
            self.stats.packets_dropped += 1
            return
        self.stats.packets_forwarded += 1
        handler(frame)

    def _emit_packetin(self, frame: Frame, in_port: int) -> None:
        """Send a PacketIn, subject to the profile's rate cap."""
        self._refill_pi_tokens()
        if self._pi_tokens < 1.0:
            self.stats.packetins_dropped += 1
            return
        self._pi_tokens -= 1.0
        self.stats.packetins_sent += 1
        # PacketIn handling steals a sliver of control CPU (Figure 7).
        if self.profile.packetin_rate > 0:
            self._stolen_cpu += (
                self.profile.packetin_interference / self.profile.packetin_rate
            )
        self._reply(PacketIn(payload=craft_packet(*frame), in_port=in_port))

    def _refill_pi_tokens(self) -> None:
        elapsed = self.sim.now - self._pi_last_refill
        self._pi_last_refill = self.sim.now
        self._pi_tokens = min(
            self.profile.packetin_rate,
            self._pi_tokens + elapsed * self.profile.packetin_rate,
        )

    def deliver_to_controller_port(self, frame: Frame, in_port: int) -> None:
        """Data-plane packet destined to the controller (catch rules)."""
        self._emit_packetin(frame, in_port=in_port)

    # ----- fault injection -----------------------------------------------

    def fail_rule_in_dataplane(self, rule: Rule) -> bool:
        """Silently remove a rule from the data plane only (§8.1.1)."""
        return self.dataplane.remove(rule)

    def corrupt_rule_in_dataplane(
        self, rule: Rule, actions: ActionList
    ) -> None:
        """Replace a data-plane rule's actions without telling anyone."""
        existing = self.dataplane.get(rule.priority, rule.match)
        if existing is None:
            raise KeyError(f"rule not in dataplane: {rule!r}")
        self.dataplane.install(existing.with_actions(actions))

    def blackhole_flowmod(self, xid: int) -> None:
        """The FlowMod with this ``xid`` (whenever it arrives) never
        reaches the data plane: the control plane acknowledges and
        tracks it, but the data plane silently ignores the update
        (paper §2).  Concurrent updates are untouched."""
        self._blackholed_xids.add(xid)

    def install_directly(self, rule: Rule) -> None:
        """Install a rule in both planes instantly (test/pre-setup)."""
        self.control_table.install(rule)
        self.dataplane.install(rule)

    def __repr__(self) -> str:
        return (
            f"SimulatedSwitch(id={self.switch_id}, {self.profile.name}, "
            f"rules={len(self.control_table)})"
        )
