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
from repro.core import probegen
from repro.core.probegen import (
    DEAD_CLAUSE_FLOOR,
    ProbeGenContext,
    ProbeGenerator,
    UnmonitorableReason,
    verify_probe,
)
from repro.openflow.actions import drop, ecmp, output
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable
from repro.sat.incremental import IncrementalSolver

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

        values, _ = parse_packet(
            result.packet, result.header[FieldName.IN_PORT]
        )
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
        hit = table.lookup(header)
        if hit is None or hit.key() != probed.key():
            continue
        if not CATCH.matches(header):
            continue
        without = table.copy()
        without.remove(probed)
        miss = without.lookup(header)
        present = RuleOutcome.from_rule(probed, header)
        absent = (
            RuleOutcome.from_rule(miss, header)
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
    """The incremental engine must agree with from-scratch generation.

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
    random live rule through the incremental engine; the result must
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
    # The engine must actually have exercised the incremental machinery.
    assert context.stats.probes_generated >= steps // 4
    assert context.stats.cache_hits + context.stats.revalidations > 0
    # Removed rules are evicted outright: the cache tracks live rules,
    # not every rule ever probed (unbounded growth regression).
    live_keys = {rule.key() for rule in context.table.rules()}
    assert set(context._cache) <= live_keys


def test_transient_chains_compact_and_recycle_over_acl_churn(monkeypatch):
    """The same equivalence on an ACL-shaped table, where every solve
    opens and retires a Distinguish chain.

    Two towers of nested ``nw_dst`` prefixes (/8 ... /32, priority
    growing with specificity) over an ECMP default rule: a probed rule
    has a dozen lower overlapping rules, so 300 add / delete / re-probe steps
    hand recycled variables out again and retire enough chain clauses
    for the context to re-found its engine — right after the solve
    whose chain took the dead clauses to ``DEAD_CLAUSE_FLOOR`` and past
    the live ones, and at no other solve.  A second context fed the
    same steps in lockstep answers exactly as the first.
    """
    rng = random.Random(0xAC1)

    def actions():
        kind = rng.random()
        if kind < 0.2:
            return drop()
        if kind < 0.8:
            return output(rng.choice(PORTS))
        return output(rng.choice(PORTS), nw_tos=rng.randrange(4))

    slots = []
    for tower in range(2):
        base = (10 + tower) << 24 | rng.getrandbits(24)
        for depth in range(25):
            length = 8 + depth
            prefix = base & ~((1 << (32 - length)) - 1)
            match = Match.build(dl_type=0x800, nw_dst=(prefix, length))
            slots.append((100 * tower + depth + 1, match))

    generator = ProbeGenerator(catch_match=CATCH)
    context, twin = ProbeGenContext(generator), ProbeGenContext(generator)
    contexts = (context, twin)
    # ECMP over every port: a unicast or drop probed rule differs from
    # it in the opposite sense from the table miss, a rewriting one by
    # a header-dependent term, so its branch keeps every chain live.
    default = Rule(0, Match.build(dl_type=0x800), ecmp(PORTS))
    for each in contexts:
        each.add_rule(default)
    live: dict[tuple, Rule] = {}
    for slot in slots:
        if rng.random() < 0.8:
            live[slot] = Rule(*slot, actions())
            for each in contexts:
                each.add_rule(live[slot])

    recycled = 0
    allocate = IncrementalSolver.new_var

    def counting(solver, group=None):
        nonlocal recycled
        before = solver.num_vars
        var = allocate(solver, group)
        if solver is context.solver:
            recycled += var <= before
        return var

    monkeypatch.setattr(IncrementalSolver, "new_var", counting)

    engines = [context.solver]
    for step in range(300):
        if step == 150:
            assert engines[0].stats.groups_retired and recycled
        slot = rng.choice(slots)
        if slot in live and rng.random() < 0.4:
            victim = live.pop(slot)
            for each in contexts:
                each.remove_rule(victim)
        else:
            live[slot] = Rule(*slot, actions())
            for each in contexts:
                each.add_rule(live[slot])
        probed = live[rng.choice(sorted(live, key=lambda s: s[0]))]
        solver = context.solver
        result = context.probe_for(probed)
        dead = solver.dead_clauses
        due = dead >= DEAD_CLAUSE_FLOOR and dead >= solver.num_clauses
        assert (context.solver is not solver) is due
        if due:
            engines.append(context.solver)
        _assert_equivalent(context.table, probed, result)
        again = twin.probe_for(probed)
        assert (again.ok, again.reason, again.header, again.packet) == (
            result.ok, result.reason, result.header, result.packet
        )
        assert again.solver_conflicts == result.solver_conflicts

    assert context.stats.engine_rebuilds == len(engines) - 1 >= 1
    created = sum(engine.stats.groups_created for engine in engines)
    assert created == sum(e.stats.groups_retired for e in engines) > 100
    assert created == context.stats.probes_generated  # every solve
    assert not context.solver._groups
    assert recycled > created  # chains reuse each other's vars
    assert twin.solver is not context.solver
    assert twin.solver.stats == context.solver.stats
    assert twin.stats.probes_generated == context.stats.probes_generated
    assert twin.stats.revalidations == context.stats.revalidations
    assert twin.stats.engine_rebuilds == context.stats.engine_rebuilds


def test_engine_rebuild_bounds_guard_growth(monkeypatch):
    """Churn that never reuses a match must not grow the persistent
    encoder forever: once dead guards dominate the live table the
    context re-founds its solver, and probes stay correct across the
    rebuild."""
    monkeypatch.setattr(probegen, "REBUILD_FLOOR", 8)
    rng = random.Random(7)
    context = ProbeGenContext(ProbeGenerator(catch_match=CATCH))
    keeper = Rule(
        priority=500,
        match=Match.build(nw_src=SRC_VALUES[0]),
        actions=output(1),
    )
    context.add_rule(keeper)
    for i in range(60):  # every add uses a fresh, never-recycled match
        rule = Rule(
            priority=100 + i,
            match=Match.build(nw_dst=0x14000100 + i),
            actions=output(rng.choice(PORTS)),
        )
        context.add_rule(rule)
        # Force a real solve: the fresh rule overlaps the keeper, so
        # generating the keeper's probe encodes a guard for it.
        context._cache.clear()
        result = context.probe_for(keeper)
        _assert_equivalent(context.table, keeper, result)
        context.remove_rule(rule)
    assert context.stats.engine_rebuilds >= 1
    assert context.encoder.cached_guards <= max(
        8, 2 * (len(context.table) + 1)
    )
    result = context.probe_for(keeper)
    _assert_equivalent(context.table, keeper, result)


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
        raw = craft_packet(result.header, b"payload123456789")
        values, payload = parse_packet(raw)
        assert payload == b"payload123456789"
