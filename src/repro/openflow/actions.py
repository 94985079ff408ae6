"""OpenFlow actions and rule outcomes.

The paper's constraint framework (§3.4) treats every rule as having a
*forwarding set* ``F`` plus per-port rewrites:

* drop rules: ``F = {}``,
* unicast: ``|F| = 1``,
* multicast/broadcast: the packet goes to *all* ports in ``F``,
* ECMP: the packet goes to *one, unknown* port from ``F``.

We model this directly.  An :class:`ActionList` is an ordered list of
:class:`SetField` rewrites and :class:`Forward` outputs (rewrites apply to
all subsequent outputs, as in OpenFlow 1.0), optionally wrapped in an
:class:`EcmpGroup`.  The normalized view — forwarding set, per-port
rewrites, ECMP flag — is what the constraint compiler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.openflow.fields import HEADER, FieldName

#: Pseudo-port used for "send to controller" (OFPP_CONTROLLER).
CONTROLLER_PORT = 0xFFFD


class OutcomeKind:
    """Symbolic names for rule-outcome categories."""

    DROP = "drop"
    UNICAST = "unicast"
    MULTICAST = "multicast"
    ECMP = "ecmp"


@dataclass(frozen=True)
class Action:
    """Marker base class for actions."""


@dataclass(frozen=True)
class SetField(Action):
    """Rewrite one header field to a fixed value before later outputs."""

    field_name: FieldName
    value: int

    def __post_init__(self) -> None:
        fld = HEADER.field(self.field_name)
        if not fld.contains(self.value):
            raise ValueError(
                f"SetField {self.field_name}={self.value:#x} exceeds "
                f"width {fld.width}"
            )


@dataclass(frozen=True)
class Forward(Action):
    """Output the (possibly rewritten) packet on a port."""

    port: int

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"negative port: {self.port}")


@dataclass(frozen=True)
class Drop(Action):
    """Explicit drop marker (equivalent to an empty action list)."""


@dataclass(frozen=True)
class Multicast(Action):
    """Convenience action: output to several ports with shared rewrites."""

    ports: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.ports)) != len(self.ports):
            raise ValueError(f"duplicate ports in multicast: {self.ports}")


@dataclass(frozen=True)
class EcmpGroup(Action):
    """Equal-cost multipath: the switch picks one port from the set.

    Per-port rewrites are supported via ``rewrites``: a mapping from port
    to the rewrites applied when that port is selected.
    """

    ports: tuple[int, ...]
    rewrites: tuple[tuple[int, tuple[SetField, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.ports:
            raise ValueError("ECMP group needs at least one port")
        if len(set(self.ports)) != len(self.ports):
            raise ValueError(f"duplicate ports in ECMP group: {self.ports}")
        for port, _ in self.rewrites:
            if port not in self.ports:
                raise ValueError(f"rewrite for port {port} not in group")


#: A rewrite-free outcome's keep-mask, and a rewrite-free action list's
#: rewritten fields: one shared object each, not one per rule.
_KEEP_ALL = (1 << HEADER.total_bits) - 1
_NO_FIELDS: frozenset[FieldName] = frozenset()


@dataclass(frozen=True)
class PortOutcome:
    """What a rule does toward one output port.

    Attributes:
        port: the output port.
        rewrites: field -> value rewrites in effect when the packet is
            emitted on this port.
        keep / set_bits: the rewrites on a packed header (the
            :meth:`~repro.openflow.match.Match.packed` layout), fixed
            when the outcome is built: the emitted header is
            ``header & keep | set_bits``.
    """

    port: int
    rewrites: tuple[tuple[FieldName, int], ...] = ()
    keep: int = field(init=False, repr=False, compare=False)
    set_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keep = _KEEP_ALL
        set_bits = 0
        for name, value in self.rewrites:
            shift, mask = HEADER.spans[name]
            keep &= ~(mask << shift)
            set_bits |= value << shift
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "set_bits", set_bits)


class ActionList:
    """An ordered OpenFlow 1.0 action list, normalized for analysis.

    Args:
        actions: sequence of :class:`Action` objects.  ``SetField``
            rewrites accumulate and apply to every later ``Forward`` /
            ``Multicast``.  An ``EcmpGroup`` must be the only forwarding
            action if present.
    """

    __slots__ = ("actions", "_port_outcomes", "_is_ecmp", "_rewritten")

    def __init__(self, actions: Sequence[Action] = ()) -> None:
        self.actions: tuple[Action, ...] = tuple(actions)
        self._port_outcomes, self._is_ecmp = self._normalize(self.actions)
        rewritten = {
            name for po in self._port_outcomes for name, _ in po.rewrites
        }
        self._rewritten = frozenset(rewritten) if rewritten else _NO_FIELDS

    @staticmethod
    def _normalize(
        actions: tuple[Action, ...],
    ) -> tuple[tuple[PortOutcome, ...], bool]:
        """Flatten the action list into per-port outcomes."""
        ecmp_groups = [a for a in actions if isinstance(a, EcmpGroup)]
        if ecmp_groups:
            others = [
                a
                for a in actions
                if isinstance(a, (Forward, Multicast, Drop))
            ]
            if len(ecmp_groups) > 1 or others:
                raise ValueError(
                    "an EcmpGroup must be the only forwarding action"
                )
            group = ecmp_groups[0]
            pending: dict[FieldName, int] = {}
            for action in actions:
                if isinstance(action, SetField):
                    pending[action.field_name] = action.value
            per_port_extra = {port: rws for port, rws in group.rewrites}
            outcomes = []
            for port in group.ports:
                rewrites = dict(pending)
                for sf in per_port_extra.get(port, ()):
                    rewrites[sf.field_name] = sf.value
                outcomes.append(
                    PortOutcome(
                        port=port, rewrites=tuple(sorted(rewrites.items()))
                    )
                )
            return tuple(outcomes), True

        outcomes = []
        seen_ports: set[int] = set()
        pending = {}
        for action in actions:
            if isinstance(action, SetField):
                pending[action.field_name] = action.value
            elif isinstance(action, Forward):
                if action.port in seen_ports:
                    raise ValueError(f"duplicate output port {action.port}")
                seen_ports.add(action.port)
                outcomes.append(
                    PortOutcome(
                        port=action.port,
                        rewrites=tuple(sorted(pending.items())),
                    )
                )
            elif isinstance(action, Multicast):
                for port in action.ports:
                    if port in seen_ports:
                        raise ValueError(f"duplicate output port {port}")
                    seen_ports.add(port)
                    outcomes.append(
                        PortOutcome(
                            port=port,
                            rewrites=tuple(sorted(pending.items())),
                        )
                    )
            elif isinstance(action, Drop):
                pass  # explicit drop: contributes no outputs
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown action {action!r}")
        return tuple(outcomes), False

    # ----- normalized views -------------------------------------------

    @property
    def is_ecmp(self) -> bool:
        """True when the packet goes to exactly one port of a set."""
        return self._is_ecmp

    @property
    def port_outcomes(self) -> tuple[PortOutcome, ...]:
        """Per-port outcomes (port + rewrites in effect on that port)."""
        return self._port_outcomes

    def forwarding_set(self) -> frozenset[int]:
        """The paper's ``F``: set of ports the rule may emit on."""
        return frozenset(po.port for po in self._port_outcomes)

    def outcome_kind(self) -> str:
        """Categorize per §3.4: drop / unicast / multicast / ecmp."""
        n = len(self._port_outcomes)
        if n == 0:
            return OutcomeKind.DROP
        if self._is_ecmp:
            return OutcomeKind.ECMP
        if n == 1:
            return OutcomeKind.UNICAST
        return OutcomeKind.MULTICAST

    def rewrites_on_port(self, port: int) -> dict[FieldName, int]:
        """Rewrites in effect for packets emitted on ``port``."""
        for po in self._port_outcomes:
            if po.port == port:
                return dict(po.rewrites)
        raise KeyError(f"port {port} not in forwarding set")

    def rewritten_fields(self) -> frozenset[FieldName]:
        """All fields any port's outcome may rewrite."""
        return self._rewritten

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActionList):
            return NotImplemented
        return self.actions == other.actions

    def __hash__(self) -> int:
        return hash(self.actions)

    def __repr__(self) -> str:
        kind = self.outcome_kind()
        ports = sorted(self.forwarding_set())
        return f"ActionList({kind}, ports={ports})"


def drop() -> ActionList:
    """An action list that drops the packet."""
    return ActionList((Drop(),))


def output(port: int, **rewrites: int) -> ActionList:
    """Unicast to ``port`` with optional field rewrites.

    Example: ``output(2, nw_tos=0x10)``.
    """
    actions: list[Action] = [
        SetField(FieldName(name), value) for name, value in rewrites.items()
    ]
    actions.append(Forward(port))
    return ActionList(actions)


def ecmp(ports: Sequence[int], **rewrites: int) -> ActionList:
    """ECMP across ``ports`` with shared rewrites."""
    actions: list[Action] = [
        SetField(FieldName(name), value) for name, value in rewrites.items()
    ]
    actions.append(EcmpGroup(tuple(ports)))
    return ActionList(actions)
