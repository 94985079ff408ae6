"""OpenFlow control channels.

A :class:`ControlChannel` carries control messages between a
controller-side endpoint and a switch-side endpoint with a configurable
latency, in order and at most once (the TCP connection OpenFlow runs
over).  Endpoints are callables; Monocle interposes by owning the
switch's channel and exposing a controller-facing endpoint of its own
(the paper's proxy design, §2/§7).
"""

from __future__ import annotations

from typing import Callable

from repro.network.conditioning import ChannelConditioner
from repro.openflow.messages import Message
from repro.sim.kernel import Simulator

#: Default one-way control-channel latency (TCP over management net).
DEFAULT_CONTROL_LATENCY = 0.001


class ControlChannel:
    """A bidirectional, ordered message pipe with latency.

    An optional :class:`~repro.network.conditioning.ChannelConditioner`
    drops messages with seed-deterministic draws; a message that
    survives is delivered once, after the same latency as every other,
    so messages arrive in the order sent.  A message pays for the draw
    only in a direction that has an overlay in force: otherwise the
    send path reads one attribute and is byte-identical to an
    unconditioned channel — no conditioner call, no draws.

    Attributes:
        down_handler: receives messages travelling controller -> switch.
        up_handler: receives messages travelling switch -> controller.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = DEFAULT_CONTROL_LATENCY,
        conditioner: ChannelConditioner | None = None,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.conditioner = conditioner
        self.down_handler: Callable[[Message], None] | None = None
        self.up_handler: Callable[[Message], None] | None = None
        self.messages_down = 0
        self.messages_up = 0

    def send_down(self, msg: Message) -> None:
        """Send toward the switch."""
        self.messages_down += 1
        handler = self.down_handler
        if handler is not None:
            self._deliver(msg, handler, "down")

    def send_up(self, msg: Message) -> None:
        """Send toward the controller."""
        self.messages_up += 1
        handler = self.up_handler
        if handler is not None:
            self._deliver(msg, handler, "up")

    def _deliver(
        self,
        msg: Message,
        handler: Callable[[Message], None],
        direction: str,
    ) -> None:
        conditioner = self.conditioner
        if (
            conditioner is None
            or direction not in conditioner.active
            or conditioner.plan(direction)
        ):
            self.sim.schedule(self.latency, lambda: handler(msg))
