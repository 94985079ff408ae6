"""The simulated OpenFlow switch.

Separates the *control plane* (a serial message processor with
per-message costs from the :class:`~repro.switches.profiles.SwitchProfile`)
from the *data plane* (a flow table that lags behind by the profile's
install delay, and hands a packet on in wire form, re-normalising a
header only where a rewrite touched it).  This split is what lets the
reproduction exhibit the transient control/data-plane inconsistencies
the paper monitors for.

Fault injection (silently removing or corrupting data-plane rules,
failing ports) implements the §8.1.1 failure scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.openflow.actions import CONTROLLER_PORT, ActionList
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
from repro.packets.craft import (
    IN_PORT_SHIFT,
    NOT_IN_PORT,
    CraftError,
    craft_packet,
    wire_header,
)
from repro.packets.parse import ParseError, parse_packet
from repro.sim.kernel import Simulator
from repro.sim.random import DeterministicRandom
from repro.switches.profiles import OVS, SwitchProfile

#: Data-plane forwarding latency through the switch fabric (seconds).
FABRIC_LATENCY = 0.0001

#: A reordering switch's heavy tail ([16]): the share of installs that
#: draw an extra delay, and that delay's span (seconds).
REORDER_TAIL_PROBABILITY = 0.2
REORDER_TAIL_EXTRA = 0.25

#: A packet inside the simulated data plane: the header the wire would
#: carry, packed as one int (:meth:`~repro.openflow.match.Match.packed`'s
#: layout, ``in_port`` 0), and the payload.  Parsing puts a header in
#: that form; a hop keeps it there, clearing the ``in_port`` it ORed in,
#: and runs :func:`~repro.packets.craft.wire_header` only on what a
#: rewrite touched.  Bytes exist only where something real reads them:
#: PacketOut in, PacketIn out, host NICs.
Frame = tuple[int, bytes]


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
    ) -> None:
        self.sim = sim
        self.switch_id = switch_id
        self.profile = profile
        self.rng = rng if rng is not None else DeterministicRandom(switch_id)
        #: Install delays' own stream, so ECMP draws do not shift them.
        self._install_rng = self.rng.fork(1)
        self.num_ports = num_ports

        #: Rules the control plane has accepted (what the switch reports).
        self.control_table = FlowTable()
        #: Rules the data plane actually applies.
        self.dataplane = FlowTable()

        self.stats = SwitchStats()
        self.send_to_controller: Callable[[Message], None] | None = None
        self._ports: dict[int, Callable[[Frame], None]] = {}

        # Control-plane serial processor state.
        self._queue: list[Message] = []
        self._busy = False
        self._stolen_cpu = 0.0  # PacketIn interference, consumed lazily
        self._pending_installs = 0
        self._last_install_time = 0.0
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
        return self.profile.barrier_cost  # barriers, echoes: cheap

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
        profile = self.profile
        rng = self._install_rng
        delay = rng.jittered(profile.install_latency, profile.install_jitter)
        if profile.reorders:
            # A heavy tail lets later FlowMods overtake earlier ones.
            if rng.random() < REORDER_TAIL_PROBABILITY:
                delay += rng.uniform(0.0, REORDER_TAIL_EXTRA)
            apply_at = self.sim.now + delay
        else:
            # In-order switches cannot apply an install before earlier
            # ones; enforce monotonic data-plane apply times.
            apply_at = max(self.sim.now + delay, self._last_install_time)
            self._last_install_time = apply_at
        self._pending_installs += 1
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
        frame = self._parse(msg.payload)
        if frame is not None:
            self._emit(frame, msg.out_port)

    def _complete_barrier(self, msg: BarrierRequest) -> None:
        self.stats.barriers_processed += 1
        profile = self.profile
        if (
            not (profile.premature_ack or profile.reorders)
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

    def _parse(self, raw: bytes) -> Frame | None:
        """Bytes enter the data plane (PacketOut payload, host NIC)."""
        try:
            return parse_packet(raw)
        except ParseError:
            self.stats.parse_errors += 1
            return None

    def inject_raw(self, raw: bytes, in_port: int) -> None:
        """Packet bytes arrive on ``in_port`` (an edge port's host)."""
        frame = self._parse(raw)
        if frame is not None:
            self.inject(frame, in_port)

    def inject(self, frame: Frame, in_port: int) -> None:
        """A packet arrives on ``in_port`` (from a peer switch's link).

        ``frame`` must be in wire form, and each emission stays in it:
        one no rewrite touched differs from it only in ``in_port``,
        which is looked up with the header and cleared on the way out."""
        header, payload = frame
        emissions = self.dataplane.process(
            header | in_port << IN_PORT_SHIFT, self._choose_ecmp_port
        )
        if not emissions:
            self.stats.packets_dropped += 1
            return
        for outcome, header in emissions:
            # in_port is not meaningful on egress: carried as 0.
            if not outcome.rewrites:
                header &= NOT_IN_PORT
            else:
                try:
                    header = wire_header(header)
                except CraftError:  # a rewrite left it no wire form
                    self.stats.packets_dropped += 1
                    continue
            out = (header, payload)
            if outcome.port == CONTROLLER_PORT:
                self.sim.schedule(
                    FABRIC_LATENCY,
                    lambda f=out, p=in_port: self._emit_packetin(f, p),
                )
            else:
                self.sim.schedule(
                    FABRIC_LATENCY,
                    lambda p=outcome.port, f=out: self._emit(f, p),
                )

    def _choose_ecmp_port(self, rule: Rule) -> int:
        return self.rng.choice(sorted(rule.forwarding_set()))

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
