"""Property-based tests: probe generation against random flow tables.

The central invariant (the paper's Table 1, checked by simulation): for
ANY flow table, if the generator claims a probe exists then the probe
(a) is processed by the probed rule, (b) yields observably different
outcomes with and without the rule, and (c) matches the catching rule.
Completeness is spot-checked too: when the generator says UNSAT, no
header in a small exhaustive neighbourhood may satisfy Table 1.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from action_helpers import multicast
from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    UnmonitorableReason,
    verify_probe,
)
from repro.openflow.actions import drop, ecmp, output
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable, pack_header

CATCH = Match.build(dl_vlan=0xF03)

# Small discrete universes keep exhaustive cross-checks feasible.
SRC_VALUES = [0x0A000001, 0x0A000002, 0x0A000003]
DST_VALUES = [0x14000001, 0x14000002]
PORTS = [1, 2, 3]


@st.composite
def rule_strategy(draw, priority):
    match_kwargs = {}
    if draw(st.booleans()):
        match_kwargs["nw_src"] = draw(st.sampled_from(SRC_VALUES))
    if draw(st.booleans()):
        match_kwargs["nw_dst"] = draw(st.sampled_from(DST_VALUES))
    kind = draw(
        st.sampled_from(["unicast", "drop", "rewrite", "multicast", "ecmp"])
    )
    if kind == "unicast":
        actions = output(draw(st.sampled_from(PORTS)))
    elif kind == "drop":
        actions = drop()
    elif kind == "rewrite":
        actions = output(
            draw(st.sampled_from(PORTS)), nw_tos=draw(st.integers(0, 3))
        )
    elif kind == "multicast":
        ports = draw(
            st.lists(
                st.sampled_from(PORTS), min_size=2, max_size=3, unique=True
            )
        )
        actions = multicast(ports)
    else:
        ports = draw(
            st.lists(
                st.sampled_from(PORTS), min_size=2, max_size=3, unique=True
            )
        )
        actions = ecmp(ports)
    return Rule(
        priority=priority, match=Match.build(**match_kwargs), actions=actions
    )


@st.composite
def table_strategy(draw):
    num_rules = draw(st.integers(2, 6))
    priorities = draw(
        st.lists(
            st.integers(
                1, 30
            ), min_size=num_rules, max_size=num_rules, unique=True
        )
    )
    rules = [draw(rule_strategy(priority)) for priority in priorities]
    table = FlowTable()
    for rule in rules:
        table.install(rule)
    probed = draw(st.sampled_from(rules))
    return table, probed


@settings(max_examples=120, deadline=None)
@given(table_strategy())
def test_generated_probes_satisfy_table1(table_and_rule):
    """Soundness: every generated probe passes the simulation check."""
    table, probed = table_and_rule
    generator = ProbeGenerator(catch_match=CATCH)
    result = generator.generate(table, probed)
    if result.ok:
        valid, why = verify_probe(table, probed, result.header, CATCH)
        assert valid, why
        # The raw packet must parse back to the same header fields that
        # matter (craft/parse round trip on a generated probe).
        from repro.packets.parse import parse_packet

        header, _ = parse_packet(
            result.packet, result.header[FieldName.IN_PORT]
        )
        assert header == result.packed_header
        values = HEADER.unpack(header)
        for name in (FieldName.NW_SRC, FieldName.NW_DST, FieldName.DL_VLAN):
            assert values[name] == result.header[name]


def _exhaustive_probe_exists(table, probed):
    """Brute-force Table 1 over the small header universe."""
    for src, dst, vlan, tos in itertools.product(
        SRC_VALUES + [0x0B000000],
        DST_VALUES + [0x15000000],
        [0xF03],
        range(4),
    ):
        header = {
            FieldName.NW_SRC: src,
            FieldName.NW_DST: dst,
            FieldName.DL_VLAN: vlan,
            FieldName.NW_TOS: tos,
        }
        packed = pack_header(header)
        hit = table.lookup(packed)
        if hit is None or hit.key() != probed.key():
            continue
        if not CATCH.matches(header):
            continue
        without = table.copy()
        without.remove(probed)
        miss = without.lookup(packed)
        present = RuleOutcome.from_rule(probed, packed)
        absent = (
            RuleOutcome.from_rule(miss, packed)
            if miss is not None
            else RuleOutcome.dropped()
        )
        if present.distinguishable_from(absent):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(table_strategy())
def test_unsat_verdicts_are_complete(table_and_rule):
    """Completeness: UNSAT means no probe exists in the small universe.

    (The converse of soundness; restricted to the discrete universe the
    strategies draw from, where exhaustive checking is feasible.)
    """
    table, probed = table_and_rule
    generator = ProbeGenerator(catch_match=CATCH)
    result = generator.generate(table, probed)
    if not result.ok and result.reason is UnmonitorableReason.UNSATISFIABLE:
        assert not _exhaustive_probe_exists(table, probed)


def _assert_equivalent(table, probed, incremental_result):
    """The context's delta API must agree with from-scratch generation.

    Equivalence is on the SAT/UNSAT verdict (models may differ between
    two complete solvers) and on probe validity: any produced probe must
    satisfy Table 1 against the *current* table by simulation.
    """
    scratch = ProbeGenerator(catch_match=CATCH).generate(table, probed)
    incr_unsat = (
        not incremental_result.ok
        and incremental_result.reason is UnmonitorableReason.UNSATISFIABLE
    )
    scratch_unsat = (
        not scratch.ok
        and scratch.reason is UnmonitorableReason.UNSATISFIABLE
    )
    assert incr_unsat == scratch_unsat, (
        f"verdicts diverge: incremental={incremental_result.reason}, "
        f"from-scratch={scratch.reason}"
    )
    if incremental_result.ok:
        valid, why = verify_probe(
            table, probed, incremental_result.header, CATCH
        )
        assert valid, f"incremental probe invalid: {why}"
    if scratch.ok:
        valid, why = verify_probe(table, probed, scratch.header, CATCH)
        assert valid, f"from-scratch probe invalid: {why}"


def _random_rule(rng, priority):
    match_kwargs = {}
    if rng.random() < 0.5:
        match_kwargs["nw_src"] = rng.choice(SRC_VALUES)
    if rng.random() < 0.5:
        match_kwargs["nw_dst"] = rng.choice(DST_VALUES)
    kind = rng.choice(["unicast", "drop", "rewrite", "multicast", "ecmp"])
    if kind == "unicast":
        actions = output(rng.choice(PORTS))
    elif kind == "drop":
        actions = drop()
    elif kind == "rewrite":
        actions = output(rng.choice(PORTS), nw_tos=rng.randrange(4))
    elif kind == "multicast":
        actions = multicast(rng.sample(PORTS, rng.choice([2, 3])))
    else:
        actions = ecmp(rng.sample(PORTS, rng.choice([2, 3])))
    return Rule(
        priority=priority, match=Match.build(**match_kwargs), actions=actions
    )


def test_incremental_context_equivalent_over_200_churn_steps():
    """The delta API tracks 250 randomized churn steps exactly.

    Each step mutates the table through ``ProbeGenContext.add_rule`` /
    ``remove_rule`` (add, delete, or modify-in-place) and then probes a
    random live rule through the context's cache; the result must
    match a from-scratch generation on every step.
    """
    rng = random.Random(0xC0DE)
    context = ProbeGenContext(ProbeGenerator(catch_match=CATCH))
    live: list[Rule] = []
    next_priority = iter(range(1, 10_000))
    for _ in range(6):  # seed population
        rule = _random_rule(rng, next(next_priority))
        context.add_rule(rule)
        live.append(rule)

    steps = 250
    for step in range(steps):
        op = rng.choice(["add", "delete", "modify", "none"])
        if op == "add" or not live:
            rule = _random_rule(rng, next(next_priority))
            context.add_rule(rule)
            live.append(rule)
        elif op == "delete":
            victim = live.pop(rng.randrange(len(live)))
            context.remove_rule(victim)
            if not live:
                rule = _random_rule(rng, next(next_priority))
                context.add_rule(rule)
                live.append(rule)
        elif op == "modify":
            index = rng.randrange(len(live))
            old = live[index]
            new = _random_rule(rng, old.priority)
            replacement = Rule(
                priority=old.priority,
                match=old.match,
                actions=new.actions,
                cookie=old.cookie,
            )
            context.add_rule(replacement)  # same key: in-place replace
            live[index] = replacement
        probed = rng.choice(live)
        result = context.probe_for(probed)
        _assert_equivalent(context.table, probed, result)
    # The context must actually have served probes from its cache.
    assert context.stats.probes_generated >= steps // 4
    assert context.stats.cache_hits + context.stats.revalidations > 0
    # Removed rules are evicted outright: the cache tracks live rules,
    # not every rule ever probed (unbounded growth regression).
    live_keys = {rule.key() for rule in context.table.rules()}
    assert set(context._cache) <= live_keys


@settings(max_examples=40, deadline=None)
@given(table_strategy(), st.randoms(use_true_random=False))
def test_incremental_matches_scratch_on_random_tables(table_and_rule, rng):
    """Hypothesis sweep: build the table through the delta API, churn a
    couple of rules, and compare against from-scratch generation."""
    table, probed = table_and_rule
    context = ProbeGenContext(ProbeGenerator(catch_match=CATCH))
    rules = table.rules()
    for rule in rules:
        context.add_rule(rule)
    # Churn: delete and re-add a random non-probed rule (if any).
    others = [r for r in rules if r.key() != probed.key()]
    if others:
        victim = rng.choice(others)
        context.remove_rule(victim)
        interim = context.probe_for(probed)
        _assert_equivalent(context.table, probed, interim)
        context.add_rule(victim)
    result = context.probe_for(probed)
    _assert_equivalent(context.table, probed, result)


@settings(max_examples=60, deadline=None)
@given(table_strategy())
def test_probe_header_is_wire_valid(table_and_rule):
    """Every generated probe survives craft -> parse without error."""
    from repro.packets.craft import craft_packet
    from repro.packets.parse import parse_packet

    table, probed = table_and_rule
    generator = ProbeGenerator(catch_match=CATCH)
    result = generator.generate(table, probed)
    if result.ok:
        raw = craft_packet(result.packed_header, b"payload123456789")
        values, payload = parse_packet(raw)
        assert payload == b"payload123456789"
