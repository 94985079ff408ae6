"""Point-to-point links between switch ports (or toward hosts)."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.kernel import Simulator

#: Default one-way link latency in seconds (datacenter-ish).
DEFAULT_LATENCY = 0.0002


class Link:
    """A bidirectional link with per-direction delivery and failure.

    The link does not know about switches and never looks inside what
    it carries: endpoints are callables taking one packet in the form
    :class:`~repro.network.network.Network` wired the two ends for — a
    parsed frame between two switches, raw bytes on a host edge.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = DEFAULT_LATENCY,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.failed = False
        self._a_handler: Callable[[Any], None] | None = None
        self._b_handler: Callable[[Any], None] | None = None
        self.delivered = 0
        self.dropped = 0

    def connect(
        self,
        a_handler: Callable[[Any], None],
        b_handler: Callable[[Any], None],
    ) -> None:
        """Set the receive handler of each end."""
        self._a_handler = a_handler
        self._b_handler = b_handler

    def send_from_a(self, packet: Any) -> None:
        """Transmit from endpoint A toward endpoint B."""
        self._transmit(packet, self._b_handler)

    def send_from_b(self, packet: Any) -> None:
        """Transmit from endpoint B toward endpoint A."""
        self._transmit(packet, self._a_handler)

    def _transmit(
        self, packet: Any, handler: Callable[[Any], None] | None
    ) -> None:
        if self.failed or handler is None:
            self.dropped += 1
            return
        self.delivered += 1
        self.sim.schedule(self.latency, lambda: handler(packet))

    def fail(self) -> None:
        """Cut the link: all packets in both directions are lost."""
        self.failed = True
