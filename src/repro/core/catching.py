"""Network-wide catching-rule planning (paper §6).

To collect probes, every switch pre-installs *catching rules* matching
reserved values of otherwise-unused header fields.  Reserved values are
switch identifiers; vertex coloring shrinks the identifier space:

* **Strategy 1** — one reserved field ``H``.  A switch with color ``c``
  installs, for every other color ``c'``, a top-priority rule
  ``match(H=value(c')) -> controller``.  A probe for switch ``i`` sets
  ``H = value(color(i))``: it passes through ``i`` (no catching rule for
  its own color there) and is caught by any neighbor (adjacent switches
  have different colors).
* **Strategy 2** — two reserved fields ``H1`` (probed switch), ``H2``
  (intended downstream).  Each switch installs one catch rule
  ``match(H2=own) -> controller`` and, just below it, filter rules
  ``match(H1=other) -> drop``, so a probe is delivered to the controller
  exactly once — by the intended downstream switch.  Correctness needs
  distinct identifiers within every 2-neighborhood: coloring of the
  squared graph.

The planner returns a :class:`CatchingPlan` that yields the concrete
rules per switch and the reserved-field requirements for probes
(used as the Collect match by the probe generator).

**One value per colour, however many probes are in flight.**  The
reserved value names the probed *switch* (its colour), not the probe:
each probe's identity is the (switch id, nonce) metadata in its payload
(§7), which is how the Monitor tells concurrent probes of one switch
apart.  A deeper probe window therefore needs no extra reserved values
and no extra catch rules — the rule count per switch depends only on
the colouring (the Figure 9 metric).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import networkx as nx

from repro.coloring import (
    GreedyOrder,
    exact_coloring,
    greedy_coloring,
    is_proper_coloring,
    square_graph,
)
from repro.openflow.actions import ActionList, Drop, Forward, CONTROLLER_PORT
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule

#: Priorities reserved for the monitoring rules; production rules must
#: stay below CATCH-levels (the paper requires catching rules to have
#: the highest priority among all rules).
CATCH_PRIORITY = 0xFFFF
FILTER_PRIORITY = 0xFFFE


def is_infrastructure(rule: Rule) -> bool:
    """Catch/filter rules are not probed (they are the probing plane)."""
    return rule.priority in (CATCH_PRIORITY, FILTER_PRIORITY)


class ColoringAlgorithm(str, enum.Enum):
    """Which coloring solver the planner uses."""

    EXACT = "exact"
    DSATUR = "dsatur"
    LARGEST_FIRST = "largest_first"
    NONE = "none"  # one distinct identifier per switch (no coloring)


class CapacityError(ValueError):
    """The reserved field cannot hold the required number of identifiers."""


@dataclass
class CatchingPlan:
    """A concrete catching-rule assignment for one network.

    Attributes:
        strategy: 1 or 2 (see module docstring).
        color_of: switch -> color (0-based).
        field1: the reserved field ``H`` (strategy 1) / ``H1``.
        field2: the reserved field ``H2`` (strategy 2 only).
        base1 / base2: reserved values are ``base + color``; production
            traffic must avoid these values.
    """

    strategy: int
    color_of: dict
    field1: FieldName
    field2: FieldName | None
    base1: int
    base2: int

    @property
    def num_reserved_values(self) -> int:
        """Identifiers needed = colors used (the Figure 9 metric)."""
        if not self.color_of:
            return 0
        return len(set(self.color_of.values()))

    def value1(self, switch) -> int:
        """Reserved value of ``field1`` for this switch."""
        return self.base1 + self.color_of[switch]

    def value2(self, switch) -> int:
        """Reserved value of ``field2`` for this switch (strategy 2)."""
        if self.strategy != 2:
            raise ValueError("value2 only exists for strategy 2")
        return self.base2 + self.color_of[switch]

    def catching_rules(self, switch) -> list[Rule]:
        """The monitoring rules this switch must pre-install."""
        rules: list[Rule] = []
        own_color = self.color_of[switch]
        if self.strategy == 1:
            for color in sorted(set(self.color_of.values())):
                if color == own_color:
                    continue
                rules.append(
                    Rule(
                        priority=CATCH_PRIORITY,
                        match=Match.build(
                            **{self.field1.value: self.base1 + color}
                        ),
                        actions=ActionList((Forward(CONTROLLER_PORT),)),
                    )
                )
            return rules
        # Strategy 2: one catch rule on H2=own, filters on H1=other.
        assert self.field2 is not None
        rules.append(
            Rule(
                priority=CATCH_PRIORITY,
                match=Match.build(
                    **{self.field2.value: self.base2 + own_color}
                ),
                actions=ActionList((Forward(CONTROLLER_PORT),)),
            )
        )
        for color in sorted(set(self.color_of.values())):
            if color == own_color:
                continue
            rules.append(
                Rule(
                    priority=FILTER_PRIORITY,
                    match=Match.build(
                        **{self.field1.value: self.base1 + color}
                    ),
                    actions=ActionList((Drop(),)),
                )
            )
        return rules

    def probe_match(self, probed_switch, downstream_switch) -> Match:
        """Reserved-field values a probe must carry (the Collect match).

        Strategy 1: ``H = value(color(probed))`` — not caught at the
        probed switch, caught at any neighbor.  Strategy 2 additionally
        pins ``H2`` to the downstream switch's identifier.
        """
        if self.strategy == 1:
            return Match.build(
                **{self.field1.value: self.value1(probed_switch)}
            )
        assert self.field2 is not None
        if self.color_of[probed_switch] == self.color_of[downstream_switch]:
            raise ValueError(
                "probed and downstream switch share a color; the squared-"
                "graph coloring should have prevented this"
            )
        return Match.build(
            **{
                self.field1.value: self.value1(probed_switch),
                self.field2.value: self.value2(downstream_switch),
            }
        )


def plan_catching_rules(
    topology: nx.Graph,
    strategy: int = 1,
    algorithm: ColoringAlgorithm = ColoringAlgorithm.EXACT,
    base1: int = 0xF00,
    base2: int = 0x20,
) -> CatchingPlan:
    """Compute a catching plan for a topology.

    The reserved fields are ``dl_vlan`` (``H`` / ``H1``) and ``nw_tos``
    (``H2``).

    Args:
        topology: switch-level graph (nodes = switches, edges = links).
        strategy: 1 (single reserved field) or 2 (two fields).
        algorithm: coloring solver; ``NONE`` assigns each switch its own
            identifier (the paper's non-optimized baseline).
        base1 / base2: first reserved value in each field.

    Raises:
        CapacityError: if the identifiers do not fit the fields.
    """
    if strategy not in (1, 2):
        raise ValueError(f"unknown strategy {strategy}")

    graph = topology if strategy == 1 else square_graph(topology)

    if algorithm is ColoringAlgorithm.NONE:
        coloring = {
            node: i for i, node in enumerate(sorted(topology.nodes, key=repr))
        }
    elif algorithm is ColoringAlgorithm.EXACT:
        coloring = exact_coloring(graph)
    elif algorithm is ColoringAlgorithm.DSATUR:
        coloring = greedy_coloring(graph, GreedyOrder.DSATUR)
    else:
        coloring = greedy_coloring(graph, GreedyOrder.LARGEST_FIRST)

    if algorithm is not ColoringAlgorithm.NONE and not is_proper_coloring(
        graph, coloring
    ):
        raise AssertionError("coloring solver produced an improper coloring")

    colors_used = len(set(coloring.values())) if coloring else 0
    field1, field2 = FieldName.DL_VLAN, FieldName.NW_TOS
    if base1 + colors_used - 1 > HEADER.field(field1).max_value:
        raise CapacityError(
            f"{colors_used} identifiers exceed {field1} capacity "
            f"starting at {base1:#x}"
        )
    if strategy == 2 and base2 + colors_used - 1 > HEADER.field(
        field2
    ).max_value:
        raise CapacityError(
            f"{colors_used} identifiers exceed {field2} capacity "
            f"starting at {base2:#x}"
        )

    return CatchingPlan(
        strategy=strategy,
        color_of=coloring,
        field1=field1,
        field2=field2 if strategy == 2 else None,
        base1=base1,
        base2=base2,
    )
