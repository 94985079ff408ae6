"""Drop-postponing: reliable monitoring of drop rules (paper §4.3).

Negative probing (no probe back => rule present) risks false positives.
Drop-postponing avoids it: instead of the drop rule, install a variant
that *tags* matching packets with a special header value and forwards
them to a neighbor; the neighbor pre-installs a rule dropping tagged
traffic (below the catch rule's priority, above production rules).
Probes tagged this way still reach Monocle via the neighbor's catch
rule, so the installation is positively confirmed; production traffic
is dropped one hop later.  After confirmation, the rule is replaced by
the real drop.
"""

from __future__ import annotations

from repro.openflow.actions import ActionList, Drop, Forward, SetField
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule

#: Reserved nw_tos value marking "this packet is scheduled to be dropped".
DROP_TAG_TOS = 0x3F

#: Priority of the neighbor-side tag-drop rule: below the catch rule
#: (0xFFFF) so probes still reach the controller, above filter rules and
#: all production rules.
TAG_DROP_PRIORITY = 0xFFFE


def postpone_drop_rule(rule: Rule, neighbor_port: int) -> Rule:
    """The temporary stand-in for a drop rule (Figure 3, left switch).

    Matches the same packets, rewrites ``nw_tos`` to
    :data:`DROP_TAG_TOS` and forwards to ``neighbor_port`` instead of
    dropping.

    Raises:
        ValueError: if the rule is not a drop rule.
    """
    if rule.forwarding_set():
        raise ValueError(f"not a drop rule: {rule!r}")
    actions = ActionList(
        (SetField(FieldName.NW_TOS, DROP_TAG_TOS), Forward(neighbor_port))
    )
    return rule.with_actions(actions)


def finalize_drop_rule(postponed: Rule) -> Rule:
    """The real drop rule to swap in once the stand-in is confirmed."""
    return postponed.with_actions(ActionList((Drop(),)))


def tag_drop_rule() -> Rule:
    """The neighbor-side rule dropping tagged production traffic.

    Pre-installed on every switch (Figure 3, right switch, rule 2).
    The catch rule outranks it, so tagged *probes* still reach Monocle.
    """
    return Rule(
        priority=TAG_DROP_PRIORITY,
        match=Match.build(nw_tos=DROP_TAG_TOS),
        actions=ActionList((Drop(),)),
    )
