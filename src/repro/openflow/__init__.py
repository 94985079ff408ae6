"""OpenFlow 1.0 data model.

This package implements the subset of OpenFlow 1.0 that Monocle needs:

* the 12-tuple match (:mod:`repro.openflow.fields`,
  :mod:`repro.openflow.match`) with exact/wildcard fields and CIDR prefix
  masks on the IP fields,
* actions — output, header rewrites, multicast forwarding sets and ECMP
  groups (:mod:`repro.openflow.actions`),
* prioritized rules and TCAM-style flow tables
  (:mod:`repro.openflow.rule`, :mod:`repro.openflow.table`),
* control-plane messages: FlowMod, BarrierRequest/Reply, PacketOut
  and PacketIn (:mod:`repro.openflow.messages`).

The *abstract header* used for SAT-based probe generation (a flat bit
vector concatenating the match fields) is defined by
:data:`repro.openflow.fields.HEADER` and shared by the matcher, the
constraint compiler and the packet crafting layer.
"""

from repro.openflow.fields import (
    Field,
    FieldName,
    HeaderLayout,
    HEADER,
    HEADER_BITS,
)
from repro.openflow.match import Match, FieldMatch
from repro.openflow.actions import (
    Action,
    ActionList,
    Drop,
    EcmpGroup,
    Forward,
    Multicast,
    OutcomeKind,
    SetField,
    CONTROLLER_PORT,
)
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable, pack_header
from repro.openflow.tuplespace import TupleSpaceIndex
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoRequest,
    EchoReply,
    FlowMod,
    FlowModCommand,
    Message,
    PacketIn,
    PacketOut,
)

__all__ = [
    "Field",
    "FieldName",
    "HeaderLayout",
    "HEADER",
    "HEADER_BITS",
    "Match",
    "FieldMatch",
    "Action",
    "ActionList",
    "Drop",
    "EcmpGroup",
    "Forward",
    "Multicast",
    "OutcomeKind",
    "SetField",
    "CONTROLLER_PORT",
    "Rule",
    "RuleOutcome",
    "FlowTable",
    "TupleSpaceIndex",
    "pack_header",
    "BarrierReply",
    "BarrierRequest",
    "EchoRequest",
    "EchoReply",
    "FlowMod",
    "FlowModCommand",
    "Message",
    "PacketIn",
    "PacketOut",
]
