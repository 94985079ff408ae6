"""Point-to-point links between switch ports (or toward hosts)."""

from __future__ import annotations

from typing import Callable

from repro.sim.kernel import Simulator

#: Default one-way link latency in seconds (datacenter-ish).
DEFAULT_LATENCY = 0.0002


class Link:
    """A bidirectional link with per-direction delivery and failure.

    The link does not know about switches; endpoints are plugged in as
    callables taking raw packet bytes.  :class:`~repro.network.network.
    Network` does the plumbing.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = DEFAULT_LATENCY,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.failed = False
        self._a_handler: Callable[[bytes], None] | None = None
        self._b_handler: Callable[[bytes], None] | None = None
        self.delivered = 0
        self.dropped = 0

    def connect(
        self,
        a_handler: Callable[[bytes], None],
        b_handler: Callable[[bytes], None],
    ) -> None:
        """Set the receive handler of each end."""
        self._a_handler = a_handler
        self._b_handler = b_handler

    def send_from_a(self, raw: bytes) -> None:
        """Transmit from endpoint A toward endpoint B."""
        self._transmit(raw, self._b_handler)

    def send_from_b(self, raw: bytes) -> None:
        """Transmit from endpoint B toward endpoint A."""
        self._transmit(raw, self._a_handler)

    def _transmit(
        self, raw: bytes, handler: Callable[[bytes], None] | None
    ) -> None:
        if self.failed or handler is None:
            self.dropped += 1
            return
        self.delivered += 1
        self.sim.schedule(self.latency, lambda: handler(raw))

    def fail(self) -> None:
        """Cut the link: all packets in both directions are lost."""
        self.failed = True

    def restore(self) -> None:
        """Repair the link."""
        self.failed = False
