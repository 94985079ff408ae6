"""The probes the SAT path returns, pinned, and what a solve may cost.

For a seeded sample of 120 rules each of the Stanford-like and
Campus-like ACL tables, ``PINS`` holds digests of what a
``ProbeResult`` says about the solve, once from the cold
:class:`ProbeGenerator` and once from a :class:`ProbeGenContext`
serving the same first probes and then 20 ``MODIFY_STRICT`` -> re-probe
steps (the shape of ``bench``'s churn steps).

* ``cold`` (verdict, header, both expected outcomes, instance size,
  solver conflicts) was recorded on the commit *before* the solver
  stopped branching on header bits no clause names, and must never need
  re-recording for a change that claims to return the same models.
* The context's pin is two: ``context`` is *what the probe is*
  (verdict, reason, header, both outcomes) and ``context_cost`` *what
  it cost* (instance size, solver conflicts).  Both were re-recorded
  when a probe's constraints became assumptions over the persistent
  guards: that change does not claim the context path's models.  The
  stored per-rule groups it deleted were part of every ``cnf_clauses``
  and the cause of every conflict (33 over these 2 x 140 solves
  before, ``PARENT_CONFLICTS``; none since), and where a search meets a
  conflict the model it ends on can differ.  On this sample it did
  not — ``context`` came out as it was — but what makes a re-recorded
  probe right is ``verify_probe`` against the table as it stood at
  that step: every ``ok`` probe when recording, a seeded quarter of
  them in tier-1.

The decision-count tests hold the mechanism itself: a cold ACL probe
is a handful of branching decisions, and a conflict-free incremental
solve never makes more decisions than its stored clauses name
variables — a later change that puts every allocated variable back on
the branching heap fails here, in tier-1, not in a benchmark.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    verify_probe,
)
from repro.datasets import campus_table, stanford_table
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sat.solver import SatSolver

CATCH = Match.build(dl_vlan=0xF03)
SEED = 7
SAMPLE = 120
CHURN = 20
TABLES = {"stanford": stanford_table, "campus": campus_table}

PINS: dict[str, dict[str, str]] = {
    "stanford": {
        "cold": "c6d7c77c2dd262ad",
        "context": "ffc4c46316119618",
        "context_cost": "a2ec908432fb9bcb",
    },
    "campus": {
        "cold": "a4db76cab9238640",
        "context": "e2b002aa9db0dd42",
        "context_cost": "ee508fcb94595627",
    },
}
#: Conflicts the context's 140 solves met per table while a probe's
#: constraints were stored per-rule clause groups.
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


def what_it_is(r) -> tuple:
    return (
        r.ok,
        r.reason,
        sorted(r.header.items()) if r.header is not None else None,
        r.outcome_present,
        r.outcome_absent,
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
    there and then, against the table as that step left it."""
    rng = random.Random(SEED)
    results = []

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


@pytest.fixture
def solves(monkeypatch):
    """Per ``SatSolver.solve`` call: its ``SatResult`` and how many
    variables the solver's stored clauses named at that moment."""
    seen = []
    original = SatSolver.solve

    def wrapper(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        named = {abs(lit) for clause in self.clauses for lit in clause}
        seen.append((result, len(named)))
        return result

    monkeypatch.setattr(SatSolver, "solve", wrapper)
    return seen


def test_cold_probes_are_the_pinned_ones(sample, solves):
    name, table, rules = sample
    results = cold_results(table, rules)
    assert digest(results, what_it_is, what_it_cost) == PINS[name]["cold"]
    assert sum(r.ok for r in results) / SAMPLE > FOUND_SHARE[name]
    # One solve per probe, and a solve is a handful of decisions: the
    # overlap filter leaves a median of one other rule in the instance.
    assert len(solves) == SAMPLE
    assert sum(result.decisions for result, _ in solves) <= 10 * SAMPLE


def test_context_probes_are_the_pinned_ones(sample, solves):
    name, table, rules = sample
    context = new_context(table)
    results = context_results(context, rules, verified=0.25)
    assert digest(results, what_it_is) == PINS[name]["context"]
    assert digest(results, what_it_cost) == PINS[name]["context_cost"]
    # One core solve per probe generated, none answered from a memo.
    assert len(solves) == len(results) == SAMPLE + CHURN
    for result, named in solves:
        assert result.conflicts or result.decisions <= named
    conflicts = sum(result.conflicts for result, _ in solves)
    assert conflicts == context.stats.solver_conflicts
    assert conflicts <= PARENT_CONFLICTS[name]
    # A chain per solve here (the table's default rule lies under every
    # sampled rule), and none of them left behind.
    incremental = context.solver.stats
    assert incremental.groups_created == len(results)
    assert incremental.groups_retired == len(results)


if __name__ == "__main__":  # record PINS: python tests/test_probegen_pins.py
    import pprint

    pins = {}
    for table_name in sorted(TABLES):
        built, rules = sampled(table_name)
        churned = context_results(new_context(built), rules, verified=1.0)
        pins[table_name] = {
            "cold": digest(
                cold_results(built, rules), what_it_is, what_it_cost
            ),
            "context": digest(churned, what_it_is),
            "context_cost": digest(churned, what_it_cost),
        }
    pprint.pprint(pins, width=76)
