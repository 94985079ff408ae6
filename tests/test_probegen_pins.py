"""The probes the SAT path returns, pinned, and what a solve may cost.

For a seeded sample of 120 rules each of the Stanford-like and
Campus-like ACL tables, ``PINS`` holds digests of what a
``ProbeResult`` says about the solve, once from the cold
:class:`ProbeGenerator` and once from a :class:`ProbeGenContext`
serving the same first probes and then 20 ``MODIFY_STRICT`` -> re-probe
steps (the shape of ``bench``'s churn steps).

* Each engine's pin is two: ``cold`` / ``context`` is *what the probe
  is* (verdict, reason, header, both outcomes), ``cold_cost`` /
  ``context_cost`` *what it cost* (instance size, solver conflicts).
* ``cold`` dates from the commit *before* the solver stopped branching
  on header bits no clause names, and must never need re-recording for
  a change that claims to return the same models.
* ``context`` was re-recorded when a probe's constraints became
  assumptions over the persistent guards: that change does not claim
  the context path's models.  The stored per-rule groups it deleted
  were part of every ``cnf_clauses`` and the cause of every conflict
  (33 over these 2 x 140 solves before, ``PARENT_CONFLICTS``), and
  where a search meets a conflict the model it ends on can differ.  On
  this sample it did not — ``context`` came out as it was.
* Both cost pins were re-recorded, and neither *is* pin moved, when the
  Distinguish chain began to be folded before it is encoded: the fold
  drops the tail branches that repeat the else value, with their
  guards and prefix variables, and a chain folded to the constant
  false is never encoded or solved.
* ``cold_cost`` was re-recorded again, and ``cold`` did not move, when
  the cold engine began to fold Hit ∧ Collect into one cube of fixed
  bits: those bits no longer enter the instance, the rules the cube
  decides leave it, and every miss of these samples is decided before
  a solve.
* ``context`` and ``context_cost`` were re-recorded, and neither cold
  pin moved, when the persistent per-switch solver was deleted: the
  context now generates with the cold engine, so its models and its
  instances are the cold engine's on the table of each step.

What makes a re-recorded probe right is ``verify_probe`` against the
table as it stood at that step: every ``ok`` probe of both paths when
recording, a seeded quarter of the context's in tier-1.

The decision-count tests hold the mechanism itself: a cold ACL probe
is a handful of branching decisions, and a conflict-free solve never
makes more decisions than its stored clauses name variables — a later
change that puts every allocated variable back among the decisions
fails here, in tier-1, not in a benchmark.  So does one that sizes the
solver by the 253-bit header again: a cold solve's per-variable array
reaches no higher than a clause, a unit or ``new_var`` named (nowhere,
for the instances the cube fold leaves empty), and its model is read
off the trail.
"""

from __future__ import annotations

import hashlib
import random
import weakref
from typing import NamedTuple

import pytest

from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    verify_probe,
)
from repro.datasets import campus_table, stanford_table
from repro.openflow.actions import output
from repro.openflow.fields import HEADER, HeaderLayout
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.rule import RuleOutcome
from repro.sat.solver import SatResult, SatSolver

CATCH = Match.build(dl_vlan=0xF03)
SEED = 7
SAMPLE = 120
CHURN = 20
TABLES = {"stanford": stanford_table, "campus": campus_table}

PINS: dict[str, dict[str, str]] = {
    "stanford": {
        "cold": "be91448435b56c00",
        "cold_cost": "c3a4bdb040af9689",
        "context": "cdeb14c7a6c2f8f5",
        "context_cost": "18433d22830a56b4",
    },
    "campus": {
        "cold": "e10e54dcbf1e898f",
        "cold_cost": "0f4b3c0b74ec05ed",
        "context": "0f243a5b9fce1d9e",
        "context_cost": "4d63e664baf4dc81",
    },
}
#: Conflicts the context's 140 solves met per table while a probe's
#: constraints were stored per-rule clause groups in a persistent
#: solver.
PARENT_CONFLICTS = {"stanford": 26, "campus": 7}
#: Table 2's "probes found": the share of sampled rules the cold
#: generator must find a probe for (the paper's 0.89 / 0.97; these
#: samples read 0.85 / 0.96).
FOUND_SHARE = {"stanford": 0.75, "campus": 0.85}


def sampled(name):
    """(table, sampled rules); the table-miss default (priority 0)
    overlaps every rule and its probe alone takes seconds."""
    table = TABLES[name](seed=SEED)
    rules = random.Random(SEED).sample(
        [rule for rule in table.rules() if rule.priority > 0], SAMPLE
    )
    return table, rules


@pytest.fixture(scope="module", params=sorted(TABLES))
def sample(request):
    return (request.param, *sampled(request.param))


def as_recorded(outcome: RuleOutcome | None) -> RuleOutcome | None:
    """An outcome in the form the pins were recorded in: each emitted
    header as its sorted ``(field, value)`` items, not a packed int."""
    if outcome is None:
        return None
    return RuleOutcome(
        emissions=tuple(
            (port, tuple(sorted(HEADER.unpack(header).items())))
            for port, header in outcome.emissions
        ),
        ecmp=outcome.ecmp,
    )


def what_it_is(r) -> tuple:
    return (
        r.ok,
        r.reason,
        sorted(r.header.items()) if r.header is not None else None,
        as_recorded(r.outcome_present),
        as_recorded(r.outcome_absent),
    )


def what_it_cost(r) -> tuple:
    return (r.cnf_vars, r.cnf_clauses, r.solver_conflicts)


def digest(results, *columns) -> str:
    rows = [sum((column(r) for column in columns), ()) for r in results]
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


def cold_results(table, rules):
    generator = ProbeGenerator(catch_match=CATCH)
    return [generator.generate(table, rule) for rule in rules]


def context_results(context, rules, verified: float):
    """First probes, then FlowMod -> re-probe: rewire a rule's output
    and ask again for every rule the FlowMod touched.  A seeded share
    ``verified`` of the ``ok`` probes goes through ``verify_probe``
    there and then, against the table as that step left it.  Returns
    the results."""
    rng = random.Random(SEED)
    results: list = []

    def probe(rule):
        result = context.probe_for(rule)
        results.append(result)
        if result.ok and rng.random() < verified:
            valid, why = verify_probe(
                context.table, rule, result.header, CATCH
            )
            assert valid, f"probe {len(results)} for {rule!r}: {why}"

    for rule in rules:
        probe(rule)
    for rule in rules[-CHURN:]:
        ports = rule.forwarding_set()
        affected = context.apply_flowmod(
            FlowMod(
                command=FlowModCommand.MODIFY_STRICT,
                match=rule.match,
                priority=rule.priority,
                actions=output(1 + (min(ports) if ports else 0) % 4),
            )
        )
        for touched in affected:
            probe(touched)
    return results


def new_context(table) -> ProbeGenContext:
    return ProbeGenContext(
        ProbeGenerator(catch_match=CATCH), table=table.copy()
    )


class Solve(NamedTuple):
    """One ``SatSolver.solve`` call, seen as it returned."""

    result: SatResult
    #: Variables the solver's stored clauses named.
    stored_vars: int
    #: Clauses handed to the solver, and the highest variable a
    #: clause, a unit or ``new_var`` named.
    clauses: int
    top_named: int
    #: Highest variable the per-variable array indexes.
    allocated: int
    #: Variables the trail holds true.
    trail_true: frozenset[int]


@pytest.fixture
def solves(monkeypatch):
    """Every ``SatSolver.solve`` call, as a :class:`Solve`."""
    named: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    seen: list[Solve] = []
    add_clause, new_var, solve = (
        SatSolver.add_clause, SatSolver.new_var, SatSolver.solve
    )

    def name(solver, var):
        named[solver] = max(named.get(solver, 0), var)

    def add_clause_spy(self, literals):
        literals = list(literals)
        add_clause(self, literals)
        name(self, max(map(abs, literals), default=0))

    def new_var_spy(self):
        var = new_var(self)
        name(self, var)
        return var

    def solve_spy(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        stored = {abs(lit) for clause in self.clauses for lit in clause}
        seen.append(Solve(
            result,
            len(stored),
            self.num_clauses,
            named.get(self, 0),
            len(self.values) - 1,
            frozenset(lit for lit in self.trail if lit > 0),
        ))
        return result

    monkeypatch.setattr(SatSolver, "add_clause", add_clause_spy)
    monkeypatch.setattr(SatSolver, "new_var", new_var_spy)
    monkeypatch.setattr(SatSolver, "solve", solve_spy)
    return seen


def test_cold_solver_is_sized_by_its_clauses(sample, solves):
    name, table, rules = sample
    results = cold_results(table, rules)
    assert len(solves) == sum(r.ok for r in results)
    for seen in solves:
        assert seen.allocated <= seen.top_named
        if not seen.clauses:
            assert seen.allocated == 0
        assert seen.result.model <= seen.trail_true
    # The fold leaves most cold instances empty: those allocate nothing.
    empty = sum(not seen.clauses for seen in solves)
    assert empty > len(solves) / 2


def test_cold_probes_are_the_pinned_ones(sample, solves):
    name, table, rules = sample
    results = cold_results(table, rules)
    assert digest(results, what_it_is) == PINS[name]["cold"]
    assert digest(results, what_it_cost) == PINS[name]["cold_cost"]
    found = sum(r.ok for r in results)
    assert found / SAMPLE > FOUND_SHARE[name]
    # One solve per probe found: on these samples the cube fold decides
    # every miss before any solve.  And a solve is a handful of
    # decisions: the overlap filter leaves a median of one other rule
    # in the instance.
    assert len(solves) == found
    assert sum(seen.result.decisions for seen in solves) <= 10 * len(solves)


def test_context_probes_are_the_pinned_ones(sample, solves):
    name, table, rules = sample
    context = new_context(table)
    results = context_results(context, rules, verified=0.25)
    assert digest(results, what_it_is) == PINS[name]["context"]
    assert digest(results, what_it_cost) == PINS[name]["context_cost"]
    # One core solve per probe generated and found, none answered from
    # a memo: the cube fold decides every miss before a solve.
    assert len(results) == SAMPLE + CHURN
    assert context.stats.probes_generated == len(results)
    assert len(solves) == sum(result.ok for result in results)
    for seen in solves:
        result = seen.result
        assert result.conflicts or result.decisions <= seen.stored_vars
    conflicts = sum(seen.result.conflicts for seen in solves)
    assert conflicts == context.stats.solver_conflicts
    assert conflicts <= PARENT_CONFLICTS[name]


def test_a_cold_generation_unpacks_no_header(sample, monkeypatch):
    """A found probe's header stays one packed int: generation unpacks
    no field of it, and ``ProbeResult.header`` unpacks it on each
    read."""
    name, table, rules = sample
    unpacked = []
    unpack = HeaderLayout.unpack

    def counting(layout, packed):
        unpacked.append(packed)
        return unpack(layout, packed)

    monkeypatch.setattr(HeaderLayout, "unpack", counting)
    results = cold_results(table, rules)
    found = [result for result in results if result.ok]
    assert found
    assert len(unpacked) == 0
    assert found[0].header == unpack(HEADER, found[0].packed_header)
    assert unpacked == [found[0].packed_header]


if __name__ == "__main__":  # record PINS: python tests/test_probegen_pins.py
    import pprint

    pins = {}
    for table_name in sorted(TABLES):
        built, rules = sampled(table_name)
        churned = context_results(new_context(built), rules, verified=1.0)
        cold = cold_results(built, rules)
        for result in cold:
            if result.ok:
                valid, why = verify_probe(
                    built, result.rule, result.header, CATCH
                )
                assert valid, f"cold probe for {result.rule!r}: {why}"
        pins[table_name] = {
            "cold": digest(cold, what_it_is),
            "cold_cost": digest(cold, what_it_cost),
            "context": digest(churned, what_it_is),
            "context_cost": digest(churned, what_it_cost),
        }
    pprint.pprint(pins, width=76)
