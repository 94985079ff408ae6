"""Tuple-space overlap index: equivalence and maintenance.

The index is a pure performance structure — every behaviour here is
defined by a fieldwise scan over ``table.rules()``:

* :meth:`FlowTable.overlapping` must return the *identical list* (set
  and order) as a brute-force ``overlap_reference.overlaps`` sweep, under
  randomized churn with priority ties and wildcard-heavy tables
  (hypothesis property);
* :meth:`FlowTable.lookup` must pick the same winner as first-match
  ``Match.matches`` iteration in table order;
* churn must never trigger a wholesale rebuild of the index
  (``index_builds`` stays at 1);
* a cached query plan must follow new buckets and refilled ones, and
  :meth:`TupleSpaceIndex.query` must equal a brute-force overlap scan
  also past a bucket's level quota (hypothesis property).
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_reference import overlaps
from repro.datasets import campus_table, stanford_table
from repro.openflow.actions import ActionList, Drop, output
from repro.openflow.fields import FieldName, HEADER
from repro.openflow.match import FieldMatch, Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, pack_header
from repro.openflow.tuplespace import (
    _MAX_LEVELS,
    TupleSpaceIndex,
    signature_of,
)


# ----- strategies ---------------------------------------------------------


def _prefix(field_name, value, length):
    field = HEADER.field(field_name)
    return FieldMatch.prefix(field, value, length)


@st.composite
def matches(draw):
    """Wildcard-heavy matches: prefixes, exacts, odd non-prefix masks."""
    fields = {}
    if draw(st.booleans()):
        fields[FieldName.DL_TYPE] = FieldMatch.exact(
            HEADER.field(FieldName.DL_TYPE), 0x0800
        )
    length = draw(st.sampled_from([0, 4, 8, 14, 16, 24, 31, 32]))
    if length:
        value = draw(st.integers(0, (1 << 32) - 1))
        fields[FieldName.NW_DST] = _prefix(FieldName.NW_DST, value, length)
    if draw(st.booleans()):
        length = draw(st.sampled_from([8, 16, 32]))
        value = draw(st.integers(0, (1 << 32) - 1))
        fields[FieldName.NW_SRC] = _prefix(FieldName.NW_SRC, value, length)
    if draw(st.booleans()):
        fields[FieldName.TP_DST] = FieldMatch.exact(
            HEADER.field(FieldName.TP_DST), draw(st.sampled_from([22, 80]))
        )
    if draw(st.booleans()):
        # Non-prefix mask: coarsens to wildcard in the signature, so
        # this exercises the fallback scan path.
        mask = draw(st.sampled_from([0x0F0F, 0x00FF, 0x5555]))
        value = draw(st.integers(0, (1 << 16) - 1)) & mask
        fields[FieldName.TP_SRC] = FieldMatch(value=value, mask=mask)
    return Match(fields)


@st.composite
def rules(draw):
    priority = draw(st.integers(1, 6))  # small range: plenty of ties
    match = draw(matches())
    actions = draw(
        st.sampled_from(
            [output(1), output(2), output(3), ActionList((Drop(),))]
        )
    )
    return Rule(priority=priority, match=match, actions=actions)


@st.composite
def headers(draw):
    values = {
        FieldName.DL_TYPE: draw(st.sampled_from([0x0800, 0x0806])),
        FieldName.NW_DST: draw(st.integers(0, (1 << 32) - 1)),
        FieldName.NW_SRC: draw(st.integers(0, (1 << 32) - 1)),
        FieldName.TP_DST: draw(st.sampled_from([22, 80, 443])),
        FieldName.TP_SRC: draw(st.integers(0, (1 << 16) - 1)),
    }
    return values


def _reference_overlapping(table: FlowTable, match: Match) -> list:
    return [r for r in table.rules() if overlaps(r.match, match)]


def _reference_lookup(table: FlowTable, header) -> Rule | None:
    for rule in table.rules():
        if rule.match.matches(header):
            return rule
    return None


# ----- the equivalence property ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(rules(), max_size=25),
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "remove", "modify"]), rules()),
        max_size=25,
    ),
    queries=st.lists(matches(), min_size=1, max_size=4),
    probes=st.lists(headers(), min_size=1, max_size=4),
)
def test_index_linear_equivalence_under_churn(initial, ops, queries, probes):
    indexed = FlowTable()

    def check():
        for match in queries + [r.match for r in indexed.rules()[:3]]:
            # Rule objects, not keys: a same-key replace must surface
            # the new rule.
            assert indexed.overlapping(match) == _reference_overlapping(
                indexed, match
            )
        for header in probes:
            expected_rule = _reference_lookup(indexed, header)
            got = indexed.lookup(pack_header(header))
            assert got is expected_rule

    for rule in initial:
        indexed.install(rule)
    # Force the index to exist before churn starts.
    indexed.overlapping(Match.wildcard())
    check()

    live = list(initial)
    for kind, rule in ops:
        if kind == "add" or not live:
            indexed.install(rule)
            live.append(rule)
        elif kind == "remove":
            victim = live[len(live) // 2]
            indexed.remove(victim)
            live = [r for r in live if r.key() != victim.key()]
        else:  # modify: same key, new actions (same-key replace path)
            target = live[len(live) // 3]
            new_rule = target.with_actions(output(7))
            indexed.install(new_rule)
            live = [
                new_rule if r.key() == new_rule.key() else r for r in live
            ]
        check()

    # Churn never rebuilt the index from scratch.
    assert indexed.index_builds == 1


# ----- the no-wholesale-rebuild regression -------------------------------


def _filler(i: int) -> Rule:
    return Rule(
        priority=10 + i,
        match=Match.build(nw_dst=0x0A000000 + i),
        actions=output(1 + i % 3),
    )


class TestNoWholesaleRebuild:
    """Each churn step must be an O(delta) index update, never an O(N)
    rebuild on the next query — whether a query lands between the
    remove and the reinstall or the two mutations run back to back."""

    @pytest.mark.parametrize("query_between", [True, False])
    def test_churn_never_rebuilds(self, query_between):
        table = FlowTable(_filler(i) for i in range(256))
        probe = Match.build(nw_dst=(0x0A000000, 24))
        baseline = {r.key() for r in table.overlapping(probe)}
        assert baseline  # index built by the first query
        for step in range(120):
            victim = _filler(step % 256)
            table.remove(victim)
            if query_between:
                assert table.overlapping(victim.match) == []
            table.install(victim)
            got = {r.key() for r in table.overlapping(probe)}
            assert got == baseline
        assert table.index_builds == 1


# ----- index internals ----------------------------------------------------


class TestTupleSpaceIndex:
    def test_signature_is_intersection_compatible(self):
        masks = [
            Match.build(nw_dst=(0x0A000000, 20)).packed()[1],
            Match.build(nw_dst=(0x0A000000, 8), dl_type=0x0800).packed()[1],
            Match.build(tp_dst=80).packed()[1],
            0,
        ]
        for a in masks:
            sig = signature_of(a)
            for b in masks:
                assert signature_of(sig & b) == sig & signature_of(b)

    def test_memoized_signature_on_the_acl_tables(self):
        for build in (stanford_table, campus_table):
            for rule in build(seed=7).rules():
                mask = rule.match.packed()[1]
                for _ in range(2):  # computed, then served from the memo
                    assert signature_of(mask) == signature_of.__wrapped__(
                        mask
                    )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.integers(0, (1 << HEADER.total_bits) - 1),
            matches().map(lambda match: match.packed()[1]),
        )
    )
    def test_memoized_signature_of_drawn_masks(self, mask):
        for _ in range(2):
            assert signature_of(mask) == signature_of.__wrapped__(mask)

    def test_tombstones_compact(self):
        index = TupleSpaceIndex()
        match = Match.build(nw_dst=(0x0A000000, 24))
        value, mask = match.packed()
        for i in range(100):
            index.add(i, value | i, mask)
        for i in range(90):
            index.discard(i)
        assert index.compactions >= 1
        assert len(index) == 10
        assert sorted(index.query(value, mask)) == list(range(90, 100))

    def test_level_cap_scans_but_stays_correct(self):
        index = TupleSpaceIndex()
        value, mask = Match.build(
            nw_dst=(0x0A000000, 32), nw_src=(0x14000000, 32)
        ).packed()
        index.add("r", value, mask)
        # Query with more distinct query signatures than the bucket
        # keeps levels for: the rest are probed on a built level over
        # a subset of their anchor.
        for dst_len in (8, 16, 24, 32):
            for src_len in (0, 8, 16, 24, 32):
                kwargs = {"nw_dst": (0x0A000000, dst_len)}
                if src_len:
                    kwargs["nw_src"] = (0x14000000, src_len)
                q = Match.build(**kwargs)
                assert index.query(*q.packed()) == ["r"]

    def test_a_cycle_of_anchors_builds_each_level_once(self):
        """One bucket queried through a cycle of more distinct anchors
        than it keeps levels for, twice: the second pass builds no
        level — none is evicted to make room and then rebuilt."""
        fields = {
            "in_port": 3, "dl_vlan": 7, "nw_proto": 6,
            "nw_tos": 4, "tp_src": 80, "tp_dst": 22,
        }
        index = TupleSpaceIndex()
        entries = {}
        for i in range(8):
            match = Match.build(**{**fields, "tp_dst": 22 + i})
            entries[i] = match
            index.add(i, *match.packed())
        (bucket,) = index._tuples.values()
        cycle = [
            Match.build(**{name: fields[name] for name in names})
            for names in itertools.combinations(sorted(fields), 3)
        ]
        anchors = {bucket.sig & signature_of(q.packed()[1]) for q in cycle}
        assert len(anchors) > _MAX_LEVELS
        for query in cycle:
            index.query(*query.packed())
        built = dict(bucket.levels)
        for query in cycle:
            got = index.query(*query.packed())
            assert sorted(got) == [
                i for i, match in entries.items() if overlaps(match, query)
            ]
        assert all(
            level is built.get(anchor)
            for anchor, level in bucket.levels.items()
        )

    def test_plans_follow_new_and_refilled_buckets(self):
        index = TupleSpaceIndex()
        a = Match.build(nw_dst=(0x0A000000, 24))
        query = Match.build(nw_dst=0x0A000001).packed()
        index.add("a", *a.packed())
        assert index.query(*query) == ["a"]
        # A new signature after the plan was cached: its bucket joins.
        b = Match.build(nw_dst=(0x0A000000, 16), tp_dst=80)
        index.add("b", *b.packed())
        assert sorted(index.query(*query)) == ["a", "b"]
        # Empty a bucket, query, then refill it with a new key.
        index.discard("a")
        assert index.query(*query) == ["b"]
        index.add("c", *a.packed())
        assert sorted(index.query(*query)) == ["b", "c"]


# ----- the index against a brute-force scan, past the level quota -------

#: Exact fields of the one large bucket; its 2**6 - 1 non-empty field
#: subsets are more anchors than a bucket keeps levels for.
_WIDE_FIELDS = {
    "in_port": (1, 2), "dl_vlan": (7, 8), "nw_proto": (6, 17),
    "nw_tos": (0, 4), "tp_src": (80, 443), "tp_dst": (22, 80),
}


@st.composite
def wide_matches(draw, every_field: bool = False):
    """Matches over the wide bucket's fields, some with an nw_dst
    prefix (other buckets) or an odd tp_src mask (no anchor bits: a
    query of that mask alone takes the scan path)."""
    names = sorted(_WIDE_FIELDS)
    if not every_field:
        names = draw(st.lists(st.sampled_from(names), unique=True))
    fields = {
        name: draw(st.sampled_from(_WIDE_FIELDS[name])) for name in names
    }
    extra = draw(st.sampled_from(["none", "prefix", "odd"]))
    if extra == "prefix":
        base = draw(st.sampled_from([0x0A000000, 0x0A010000]))
        fields["nw_dst"] = (base, draw(st.sampled_from([8, 16, 24])))
    match = Match.build(**fields)
    if extra == "odd" and "tp_src" not in fields:
        value = draw(st.sampled_from([0x0005, 0x0101]))
        match = Match({
            **match.fields,
            FieldName.TP_SRC: FieldMatch(value=value, mask=0x0F0F),
        })
    return match


def _warm_up_past_the_quota(index: TupleSpaceIndex) -> None:
    """Query every three-field subset of the wide bucket's fields."""
    for names in itertools.combinations(sorted(_WIDE_FIELDS), 3):
        index.query(
            *Match.build(**{n: _WIDE_FIELDS[n][0] for n in names}).packed()
        )


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(wide_matches(every_field=True), min_size=1,
                     max_size=12),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 15), wide_matches()),
            st.tuples(st.just("discard"), st.integers(0, 15), st.none()),
            st.tuples(st.just("query"), st.none(), wide_matches()),
        ),
        max_size=40,
    ),
)
def test_query_equals_brute_force_past_the_level_cap(entries, ops):
    index = TupleSpaceIndex()
    live: dict[int, tuple[int, int]] = {}
    for key, match in enumerate(entries):
        live[key] = match.packed()
        index.add(key, *live[key])
    _warm_up_past_the_quota(index)
    assert any(
        len(bucket.levels) >= _MAX_LEVELS
        for bucket in index._tuples.values()
    )
    for kind, key, match in ops:
        if kind == "add":
            live[key] = match.packed()
            index.add(key, *live[key])
        elif kind == "discard":
            assert index.discard(key) == (live.pop(key, None) is not None)
        else:
            value, mask = match.packed()
            assert sorted(index.query(value, mask)) == sorted(
                k for k, (v, m) in live.items() if not ((v ^ value) & m & mask)
            )


def test_acl_cold_sample_scans_no_anchored_bucket():
    """The seed-7 ACL tables' cold sample, drawn and ordered as the
    ``acl_probegen`` benchmark draws it: every bucket that shares
    coarse mask bits with a query is probed on a level, never scanned
    (a bucket past its quota finds a built level over a subset)."""
    tables = {"stanford": stanford_table(seed=7),
              "campus": campus_table(seed=7)}
    rng = random.Random(7)
    samples = {
        name: rng.sample(
            [rule for rule in table.rules() if rule.priority > 0], 900
        )[:750]
        for name, table in tables.items()
    }
    cold = [(name, rule) for name in tables for rule in samples[name]]
    rng.shuffle(cold)
    for name, rule in cold:
        tables[name].overlapping(rule.match)
        index = tables[name]._ensure_index()
        query_sig = signature_of(rule.match.packed()[1])
        _, scans = index._plans[query_sig]
        assert not [b.sig for b in scans if b.sig & query_sig]
    # The quota was reached, so the subset rule ran.
    assert any(
        len(bucket.levels) >= _MAX_LEVELS
        for table in tables.values()
        for bucket in table._ensure_index()._tuples.values()
    )
