"""TCAM-style flow table with OpenFlow 1.0 priority semantics.

Lookup returns the highest-priority matching rule.  The OpenFlow spec
leaves overlapping equal-priority rules undefined (paper footnote 1);
a table accepts them, as a real switch accepts such FlowMods, and ties
go to the earlier install.  Probe generation therefore never relies on
the tie-break: a probe avoids every overlapping rule of the probed
rule's priority.

The table also exposes the queries probe generation needs: rules with
higher/lower priority than a given rule, and rules overlapping a match
(§5.4's pre-filter).  Overlap queries and lookups are served by a
**tuple-space index** (:class:`~repro.openflow.tuplespace.
TupleSpaceIndex`): rules bucketed by mask signature.  An overlap
query follows a plan cached per query signature: one hash key per
group of buckets that share the bits both masks constrain, one probe
per bucket's level, and a value-bound prune or packed scan only for
buckets that share no such bits — O(candidates) on sparse tables.

The index is maintained through :meth:`FlowTable.install`/
:meth:`~FlowTable.remove` deltas.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Mapping

from repro.openflow.actions import PortOutcome
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.tuplespace import TupleSpaceIndex

#: Rule keys: (priority, match) — the OpenFlow identity of a table entry.
RuleKey = tuple[int, Match]

#: Where each field sits in the packed header: (name, mask, shift).
_PACK_TABLE = tuple(
    (name, mask, shift) for name, (shift, mask) in HEADER.spans.items()
)


def pack_header(header_values: Mapping[FieldName, int]) -> int:
    """The abstract header as one bigint (``Match.packed`` bit layout).

    Absent fields read as 0, mirroring :meth:`Match.matches`; a value
    wider than its field is cut to the field's width.
    """
    get = header_values.get
    packed = 0
    for name, mask, shift in _PACK_TABLE:
        value = get(name, 0) & mask
        if value:
            packed |= value << shift
    return packed


class FlowTable:
    """An ordered collection of rules with TCAM lookup semantics.

    Rules are kept sorted by descending priority; within one priority the
    order is insertion order, which decides a lookup only between
    overlapping rules of one priority.
    """

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: list[Rule] = []
        #: Sort keys (-priority, seq) aligned with ``_rules`` so inserts
        #: and removals bisect instead of scanning.
        self._order: list[tuple[int, int]] = []
        self._by_key: dict[RuleKey, Rule] = {}
        #: key -> (-priority, seq): the rule's table-order rank.  seq is
        #: a monotone insertion counter, so within one priority earlier
        #: installs rank first (exactly the legacy list order).
        self._rank: dict[RuleKey, tuple[int, int]] = {}
        #: rank -> rule.  The tuple-space index stores *ranks* as its
        #: keys: unique, cheap to hash, and — being the table-order sort
        #: key — directly sortable without a key function.
        self._by_rank: dict[tuple[int, int], Rule] = {}
        self._next_seq = 0
        #: Lazily built tuple-space index; counts from-scratch builds
        #: so tests can assert churn never rebuilds.
        self._index: TupleSpaceIndex | None = None
        self.index_builds = 0
        for rule in rules:
            self.install(rule)

    # ----- mutation ----------------------------------------------------

    def install(self, rule: Rule) -> None:
        """Add a rule; replaces an existing rule with the same key."""
        key = rule.key()
        if key in self._by_key:
            self._replace(rule)
            return
        seq = self._next_seq
        self._next_seq += 1
        rank = (-rule.priority, seq)
        index = bisect_left(self._order, rank)
        self._order.insert(index, rank)
        self._rules.insert(index, rule)
        self._by_key[key] = rule
        self._rank[key] = rank
        self._by_rank[rank] = rule
        if self._index is not None:
            value, mask = rule.match.packed()
            self._index.add(rank, value, mask)

    def _replace(self, new: Rule) -> None:
        key = new.key()
        rank = self._rank[key]
        index = bisect_left(self._order, rank)
        self._rules[index] = new
        self._by_key[key] = new
        self._by_rank[rank] = new
        # The tuple-space index stores only (key, packed match) — both
        # unchanged on a same-key replace.

    def remove(self, rule: Rule) -> bool:
        """Remove the rule with this rule's (priority, match) key.

        Returns True if a rule was removed.
        """
        key = rule.key()
        if self._by_key.pop(key, None) is None:
            return False
        rank = self._rank.pop(key)
        del self._by_rank[rank]
        index = bisect_left(self._order, rank)
        del self._order[index]
        del self._rules[index]
        if self._index is not None:
            self._index.discard(rank)
        return True

    def remove_matching(
        self, match: Match, strict_priority: int | None = None
    ) -> list[Rule]:
        """OpenFlow delete semantics.

        Non-strict (``strict_priority is None``): remove every rule whose
        match is *covered by* ``match``.  Strict: remove the single rule
        with exactly this (priority, match).
        """
        if strict_priority is not None:
            rule = self._by_key.get((strict_priority, match))
            if rule is None:
                return []
            self.remove(rule)
            return [rule]
        removed = self.covered_rules(match)
        for rule in removed:
            self.remove(rule)
        return removed

    # ----- queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return self._by_key.get(rule.key()) == rule

    def rules(self) -> list[Rule]:
        """All rules, highest priority first."""
        return list(self._rules)

    def get(self, priority: int, match: Match) -> Rule | None:
        """The rule with exactly this key, or None."""
        return self._by_key.get((priority, match))

    def _ensure_index(self) -> TupleSpaceIndex:
        index = self._index
        if index is None:
            index = TupleSpaceIndex()
            rank = self._rank
            for rule in self._rules:
                value, mask = rule.match.packed()
                index.add(rank[rule.key()], value, mask)
            self._index = index
            self.index_builds += 1
        return index

    def lookup(self, header: int) -> Rule | None:
        """Highest-priority rule matching the packed ``header``
        (:meth:`Match.packed`'s layout), or None on miss: the index is
        probed with the int as it is."""
        best: tuple[int, int] | None = None
        for rank in self._ensure_index().lookup(header):
            if best is None or rank < best:
                best = rank
        return None if best is None else self._by_rank[best]

    def process(
        self,
        header: int,
        ecmp_chooser: Callable[[Rule], int] | None = None,
    ) -> list[tuple[PortOutcome, int]]:
        """The data plane's step: the ``(port outcome, header)`` pairs a
        packet leaves by, each header the packed ``header`` with that
        outcome's rewrites applied (``header & keep | set_bits``); none
        for a drop or a miss.

        Args:
            header: the packet's packed abstract header.
            ecmp_chooser: for ECMP rules, callback selecting the concrete
                port, once per packet; defaults to the lowest port.
        """
        rule = self.lookup(header)
        if rule is None:
            return []
        outcomes = rule.actions.port_outcomes
        if rule.actions.is_ecmp:
            if ecmp_chooser is not None:
                port = ecmp_chooser(rule)
            else:
                port = min(po.port for po in outcomes)
            outcomes = tuple(po for po in outcomes if po.port == port)
        return [(po, header & po.keep | po.set_bits) for po in outcomes]

    def overlapping(self, match: Match) -> list[Rule]:
        """Rules whose match overlaps ``match`` (the §5.4 pre-filter).

        Served by the tuple-space index (whole-bucket pruning + hash
        hits, packed scan only inside surviving buckets); the result is
        in table order (priority descending, insertion order within a
        priority).
        """
        value, mask = match.packed()
        ranks = self._ensure_index().query(value, mask)
        ranks.sort()
        by_rank = self._by_rank
        return [by_rank[rank] for rank in ranks]

    def covered_rules(self, match: Match) -> list[Rule]:
        """Rules whose match is *covered by* ``match``, in table order.

        The OpenFlow non-strict MODIFY/DELETE target set.  Coverage
        implies overlap, so the index prunes the candidate pool first —
        but only when it is already built: a table nothing looks up
        in (a switch's control-plane table) must not pay an index
        construction for it.
        """
        if self._index is not None:
            return [
                rule
                for rule in self.overlapping(match)
                if match.covers(rule.match)
            ]
        return [r for r in self._rules if match.covers(r.match)]

    def copy(self) -> "FlowTable":
        """A shallow copy (rules are immutable so this is safe).

        The overlap engine of the copy rebuilds lazily on first use.
        """
        table = FlowTable()
        table._rules = list(self._rules)
        table._order = list(self._order)
        table._by_key = dict(self._by_key)
        table._rank = dict(self._rank)
        table._by_rank = dict(self._by_rank)
        table._next_seq = self._next_seq
        return table

    def __repr__(self) -> str:
        return f"FlowTable({len(self._rules)} rules)"


__all__ = [
    "FlowTable",
    "pack_header",
]
