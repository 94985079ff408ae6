"""OpenFlow control-plane messages.

In-process message objects standing in for the OF 1.0 wire protocol.  The
semantics that matter to Monocle are preserved: transaction ids, FlowMod
commands (add / modify / modify-strict / delete / delete-strict), barrier
ordering, PacketOut injection and PacketIn delivery.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.openflow.actions import ActionList
from repro.openflow.match import Match

_xid_counter = itertools.count(1)


def next_xid() -> int:
    """Allocate a fresh OpenFlow transaction id."""
    return next(_xid_counter)


@dataclass
class Message:
    """Base class for control-plane messages."""

    xid: int = field(default_factory=next_xid)


class FlowModCommand(enum.Enum):
    """OpenFlow 1.0 flow-mod commands."""

    ADD = "add"
    MODIFY = "modify"
    MODIFY_STRICT = "modify_strict"
    DELETE = "delete"
    DELETE_STRICT = "delete_strict"

    @property
    def is_delete(self) -> bool:
        """Removal semantics (strict or not).

        The one definition every affected-rule consumer (probe
        context, probe scheduler) classifies against, so
        a future delete-like command cannot desynchronize them.
        """
        return self in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT)

    @property
    def is_modify(self) -> bool:
        """In-place modification semantics (strict or not)."""
        return self in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT)


@dataclass
class FlowMod(Message):
    """A flow-table modification request.

    For ADD / MODIFY_STRICT / DELETE_STRICT the (priority, match) pair
    identifies the rule.  Non-strict MODIFY/DELETE apply to every rule
    covered by the match, per the OF 1.0 spec.
    """

    command: FlowModCommand = FlowModCommand.ADD
    match: Match = field(default_factory=Match.wildcard)
    priority: int = 0
    actions: ActionList = field(default_factory=ActionList)
    cookie: int = 0

    def __repr__(self) -> str:
        return (
            f"FlowMod(xid={self.xid}, {self.command.value}, "
            f"prio={self.priority}, {self.match!r})"
        )


@dataclass
class BarrierRequest(Message):
    """Request: reply only after all earlier messages are processed."""


@dataclass
class BarrierReply(Message):
    """Reply to a BarrierRequest (same xid)."""


@dataclass
class PacketOut(Message):
    """Controller-to-switch packet injection.

    Attributes:
        payload: raw packet bytes to emit.
        out_port: port to emit the packet on.
    """

    payload: bytes = b""
    out_port: int = 0


@dataclass
class PacketIn(Message):
    """Switch-to-controller packet delivery.

    Attributes:
        payload: raw packet bytes as received.
        in_port: port the packet arrived on.
        reason: "action" (a rule sent it to the controller) or "no_match".
    """

    payload: bytes = b""
    in_port: int = 0
    reason: str = "action"


@dataclass
class EchoRequest(Message):
    """Liveness probe from either side of the channel."""


@dataclass
class EchoReply(Message):
    """Reply to an EchoRequest (same xid)."""
