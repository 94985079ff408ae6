"""Forwarding rules and their observable outcomes.

A :class:`Rule` is (priority, match, actions) plus a cookie for
identification.  :class:`RuleOutcome` is what an observer stationed on the
switch's output ports could record for one packet — the basis of the
paper's ``DiffOutcome`` reasoning: an expectation, never built by the
simulated data plane.  It holds headers packed in
:meth:`~repro.openflow.match.Match.packed`'s bit layout, the form
probe generation and the simulated data plane work in (``pack_header``
packs a header dict).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

from repro.openflow.actions import ActionList
from repro.openflow.match import Match

_cookie_counter = itertools.count(1)


def _next_cookie() -> int:
    return next(_cookie_counter)


@dataclass(frozen=True)
class Rule:
    """An OpenFlow rule: priority, match, actions.

    Rules are immutable; a "modification" in the data model produces a new
    Rule with the same (priority, match) key.

    Attributes:
        priority: higher wins; equal-priority overlap is undefined
            behaviour per the OpenFlow spec, and the flow table refuses it.
        match: the :class:`Match`.
        actions: the :class:`ActionList`.
        cookie: opaque identifier, preserved across modifications.
    """

    priority: int
    match: Match
    actions: ActionList
    cookie: int = dataclass_field(default_factory=_next_cookie)

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 0xFFFF:
            raise ValueError(f"priority {self.priority} outside [0, 65535]")

    def key(self) -> tuple[int, Match]:
        """The identity used by FlowMod modify/delete-strict."""
        return (self.priority, self.match)

    def forwarding_set(self) -> frozenset[int]:
        """Ports this rule may emit a packet on."""
        return self.actions.forwarding_set()

    def outcome_kind(self) -> str:
        """drop / unicast / multicast / ecmp (see §3.4)."""
        return self.actions.outcome_kind()

    def with_actions(self, actions: ActionList) -> "Rule":
        """A modified version of this rule (same key, same cookie)."""
        return Rule(
            priority=self.priority,
            match=self.match,
            actions=actions,
            cookie=self.cookie,
        )

    def with_priority(self, priority: int) -> "Rule":
        """Copy with a different priority (used by probe-gen for mods)."""
        return Rule(
            priority=priority,
            match=self.match,
            actions=self.actions,
            cookie=self.cookie,
        )

    def __repr__(self) -> str:
        return (
            f"Rule(prio={self.priority}, {self.match!r}, "
            f"{self.actions!r}, cookie={self.cookie})"
        )


@dataclass(frozen=True)
class RuleOutcome:
    """The observable result a rule is *expected* to have on one packet,
    every ECMP alternative listed (switches run ``FlowTable.process``).

    Attributes:
        emissions: tuple of ``(port, packed header)`` pairs — for each
            port the packet appeared on, the header it carried there,
            one int in :meth:`~repro.openflow.match.Match.packed`'s bit
            layout (``in_port`` still the ingress port's).  Empty for
            drops.
        ecmp: True when the emitting rule was ECMP, meaning exactly one
            element of ``emissions`` actually occurs (chosen by the
            switch); False means *all* emissions occur (multicast) or
            there is at most one (unicast/drop).
    """

    emissions: tuple[tuple[int, int], ...]
    ecmp: bool = False

    @classmethod
    def from_rule(cls, rule: Rule, header: int) -> "RuleOutcome":
        """Outcome of ``rule`` processing a packet with this packed
        header: each port's rewrites applied as its
        :class:`~repro.openflow.actions.PortOutcome` mask."""
        return cls(
            emissions=tuple(
                (po.port, header & po.keep | po.set_bits)
                for po in rule.actions.port_outcomes
            ),
            ecmp=rule.actions.is_ecmp,
        )

    @classmethod
    def dropped(cls) -> "RuleOutcome":
        """Outcome of a drop (or table miss with a drop policy)."""
        return cls(emissions=(), ecmp=False)

    def ports(self) -> frozenset[int]:
        """Ports the packet may appear on."""
        return frozenset(port for port, _ in self.emissions)

    def is_drop(self) -> bool:
        """No packet leaves the switch."""
        return not self.emissions

    def distinguishable_from(self, other: "RuleOutcome") -> bool:
        """Can an observer on the output links tell the outcomes apart?

        Implements the paper's ``DiffOutcome`` semantics for two *already
        evaluated* outcomes (concrete packet), including the ECMP
        uncertainty rules of §3.4:

        * multicast/unicast/drop vs same: outcomes differ iff the
          (port, header) emission sets differ.
        * ECMP vs ECMP: distinguishable iff no shared (port, header)
          emission exists (any shared emission is ambiguous).
        * ECMP vs multicast: distinguishable iff the multicast emits on
          some (port, header) the ECMP cannot produce, or every ECMP
          choice is observably off the multicast's emission set.  The
          |F1| != 1 counting exception is handled by the caller.
        """
        mine = set(self.emissions)
        theirs = set(other.emissions)
        if not self.ecmp and not other.ecmp:
            return mine != theirs
        if self.ecmp and other.ecmp:
            return not (mine & theirs)
        # Exactly one is ECMP; call it E, the other M (deterministic).
        ecmp_set = mine if self.ecmp else theirs
        multi_set = theirs if self.ecmp else mine
        # Deterministic side emits all of multi_set.  Observer can tell
        # them apart iff multi_set is not a possible ECMP observation,
        # i.e. multi_set != {e} for every e in ecmp_set.  Since ECMP
        # emits exactly one element, M is confusable only when
        # len(multi_set) == 1 and its element is in ecmp_set.
        if len(multi_set) == 1 and next(iter(multi_set)) in ecmp_set:
            return False
        if not multi_set and not ecmp_set:
            return False
        return True
