"""End hosts: traffic sources and sinks attached to edge ports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.openflow.fields import HEADER, VLAN_NONE, FieldName
from repro.openflow.table import pack_header
from repro.packets.craft import craft_packet
from repro.packets.parse import ParseError, parse_packet
from repro.sim.kernel import Simulator


@dataclass
class ReceivedPacket:
    """One packet recorded by a host."""

    time: float
    #: Every header field, unpacked from the parsed header (``{}`` when
    #: the bytes did not parse).
    values: dict
    payload: bytes


class Host:
    """A host with one NIC plugged into a switch edge port.

    Sending goes through ``transmit`` (wired by the Network to the
    switch's ingress); everything received is recorded and optionally
    forwarded to ``on_receive``.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.transmit: Callable[[bytes], None] | None = None
        self.on_receive: Callable[[ReceivedPacket], None] | None = None
        self.received: list[ReceivedPacket] = []
        self.sent_count = 0
        self.record_packets = True

    def send_raw(self, raw: bytes) -> None:
        """Transmit raw packet bytes."""
        if self.transmit is None:
            raise RuntimeError(f"host {self.name} is not attached")
        self.sent_count += 1
        self.transmit(raw)

    def send(self, payload: bytes = b"", **header_fields: int) -> None:
        """Craft and transmit a packet from abstract header fields.

        A field not given is 0, but ``dl_vlan`` is ``VLAN_NONE``: a frame
        is untagged unless it names its VLAN.

        Raises:
            ValueError: when a value does not fit its field.
        """
        values = {FieldName.DL_VLAN: VLAN_NONE}
        for name, value in header_fields.items():
            spec = HEADER.field(FieldName(name))
            if not spec.contains(value):
                raise ValueError(
                    f"{name}={value:#x} exceeds width {spec.width}"
                )
            values[spec.name] = value
        self.send_raw(craft_packet(pack_header(values), payload))

    def receive(self, raw: bytes) -> None:
        """Called by the network when a packet reaches this host."""
        values: dict[FieldName, int] = {}
        try:
            header, payload = parse_packet(raw)
        except ParseError:
            payload = raw
        else:
            values = HEADER.unpack(header)
        packet = ReceivedPacket(
            time=self.sim.now, values=values, payload=payload
        )
        if self.record_packets:
            self.received.append(packet)
        if self.on_receive is not None:
            self.on_receive(packet)

    def __repr__(self) -> str:
        return f"Host({self.name}, received={len(self.received)})"
