"""A reference SDN controller with pluggable installation confirmation.

The controller does not care whether its messages go straight to switch
control channels or through Monocle; it only needs a ``send(node, msg)``
callable and to be registered as the upstream message handler.  Three
confirmation modes cover the paper's experimental arms:

* ``NONE`` — fire and forget,
* ``BARRIER`` — follow the FlowMod with a BarrierRequest and trust the
  BarrierReply (what the "vanilla" arm of Figure 5 does — and what
  premature-ack switches break),
* ``MONOCLE_ACK`` — wait for Monocle's UpdateAck, which is only sent
  once the rule provably works in the data plane.
"""

from __future__ import annotations

import enum
from typing import Callable, Hashable

from repro.core.dynamic import UpdateAck
from repro.openflow.actions import ActionList
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowModCommand,
    Message,
)
from repro.sim.kernel import Simulator


class ConfirmMode(str, enum.Enum):
    """How the controller learns that a rule is installed."""

    NONE = "none"
    BARRIER = "barrier"
    MONOCLE_ACK = "monocle_ack"


class SdnController:
    """Installs rules and paths; tracks confirmations by xid.

    Args:
        sim: simulation kernel (for timestamps only).
        send: ``(node, message) -> None`` delivering control messages.
    """

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[Hashable, Message], None],
    ) -> None:
        self.sim = sim
        self.send = send
        self._barrier_waiters: dict[
            tuple[Hashable, int], Callable[[], None]
        ] = {}
        self._ack_waiters: dict[tuple[Hashable, int], Callable[[], None]] = {}
        self.confirmations = 0

    # ----- message plumbing -------------------------------------------------

    def handle_message(self, node: Hashable, msg: Message) -> None:
        """Upstream handler: resolve pending barrier/ack waits."""
        if isinstance(msg, BarrierReply):
            waiter = self._barrier_waiters.pop((node, msg.xid), None)
            if waiter is not None:
                self.confirmations += 1
                waiter()
        elif isinstance(msg, UpdateAck):
            waiter = self._ack_waiters.pop((node, msg.flowmod_xid), None)
            if waiter is not None:
                self.confirmations += 1
                waiter()

    # ----- rule installation --------------------------------------------------

    def send_flowmod(
        self,
        node: Hashable,
        mod: FlowMod,
        confirm: ConfirmMode = ConfirmMode.NONE,
        on_confirmed: Callable[[], None] | None = None,
    ) -> FlowMod:
        """Send one FlowMod with the chosen confirmation mode."""
        if confirm is ConfirmMode.MONOCLE_ACK and on_confirmed is not None:
            self._ack_waiters[(node, mod.xid)] = on_confirmed
        self.send(node, mod)
        if confirm is ConfirmMode.BARRIER:
            barrier = BarrierRequest()
            if on_confirmed is not None:
                self._barrier_waiters[(node, barrier.xid)] = on_confirmed
            self.send(node, barrier)
        elif confirm is ConfirmMode.NONE and on_confirmed is not None:
            on_confirmed()
        return mod

    def install_rule(
        self,
        node: Hashable,
        match: Match,
        priority: int,
        actions: ActionList,
        confirm: ConfirmMode = ConfirmMode.NONE,
        on_confirmed: Callable[[], None] | None = None,
        command: FlowModCommand = FlowModCommand.ADD,
    ) -> FlowMod:
        """Convenience wrapper building the FlowMod."""
        mod = FlowMod(
            command=command, match=match, priority=priority, actions=actions
        )
        return self.send_flowmod(node, mod, confirm, on_confirmed)

    # ----- path installation ---------------------------------------------------

    def install_path(
        self,
        path: list[Hashable],
        match: Match,
        priority: int,
        port_toward: dict[Hashable, dict[Hashable, int]],
        final_port: int,
        confirm: ConfirmMode = ConfirmMode.NONE,
        on_all_confirmed: Callable[[], None] | None = None,
        skip_ingress: bool = False,
    ) -> list[FlowMod]:
        """Install forwarding rules along ``path`` for ``match``.

        Each hop forwards toward the next; the last hop outputs on
        ``final_port`` (typically a host port).  With ``skip_ingress``
        the first switch's rule is *not* installed — phase one of a
        two-phase consistent update.

        Returns the FlowMods sent, ingress first.
        """
        from repro.openflow.actions import output

        hops: list[tuple[Hashable, int]] = []
        for i, node in enumerate(path):
            if i + 1 < len(path):
                out_port = port_toward[node][path[i + 1]]
            else:
                out_port = final_port
            hops.append((node, out_port))

        to_install = hops[1:] if skip_ingress else hops
        remaining = len(to_install)
        mods: list[FlowMod] = []

        if remaining == 0:
            if on_all_confirmed is not None:
                on_all_confirmed()
            return mods

        def one_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and on_all_confirmed is not None:
                on_all_confirmed()

        for node, out_port in to_install:
            mods.append(
                self.install_rule(
                    node,
                    match,
                    priority,
                    output(out_port),
                    confirm=confirm,
                    on_confirmed=one_done if on_all_confirmed else None,
                )
            )
        return mods
