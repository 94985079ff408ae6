"""The probes the SAT path returns, pinned, and what a solve may cost.

``PINS`` was recorded on the commit *before* the solver stopped
branching on header bits no clause names, and must never need
re-recording for a change that claims to return the same models: for a
seeded sample of 120 rules each of the Stanford-like and Campus-like
ACL tables, a digest of everything a ``ProbeResult`` says about the
solve (verdict, header, both expected outcomes, instance size, solver
conflicts), once from the cold :class:`ProbeGenerator` and once from a
:class:`ProbeGenContext` serving the same first probes and then 20
``MODIFY_STRICT`` -> re-probe steps (the shape of ``bench``'s churn
steps).

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

from repro.core.probegen import ProbeGenContext, ProbeGenerator
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
    "stanford": {"cold": "c6d7c77c2dd262ad", "context": "fd1037de2b9ea471"},
    "campus": {"cold": "a4db76cab9238640", "context": "05ef51e2c7f45fb9"},
}


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


def digest(results) -> str:
    rows = [
        (
            r.ok,
            r.reason,
            sorted(r.header.items()) if r.header is not None else None,
            r.outcome_present,
            r.outcome_absent,
            r.cnf_vars,
            r.cnf_clauses,
            r.solver_conflicts,
        )
        for r in results
    ]
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


def cold_results(table, rules):
    generator = ProbeGenerator(catch_match=CATCH)
    return [generator.generate(table, rule) for rule in rules]


def context_results(context, rules):
    """First probes, then FlowMod -> re-probe: rewire a rule's output
    and ask again for every rule the FlowMod touched."""
    results = [context.probe_for(rule) for rule in rules]
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
        results.extend(context.probe_for(touched) for touched in affected)
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
    assert digest(cold_results(table, rules)) == PINS[name]["cold"]
    # One solve per probe, and a solve is a handful of decisions: the
    # overlap filter leaves a median of one other rule in the instance.
    assert len(solves) == SAMPLE
    assert sum(result.decisions for result, _ in solves) <= 10 * SAMPLE


def test_context_probes_are_the_pinned_ones(sample, solves):
    name, table, rules = sample
    results = context_results(new_context(table), rules)
    assert digest(results) == PINS[name]["context"]
    assert len(solves) >= SAMPLE + CHURN
    for result, named in solves:
        assert result.conflicts or result.decisions <= named


if __name__ == "__main__":  # record PINS: python tests/test_probegen_pins.py
    import pprint

    pins = {}
    for table_name in sorted(TABLES):
        built, rules = sampled(table_name)
        pins[table_name] = {
            "cold": digest(cold_results(built, rules)),
            "context": digest(context_results(new_context(built), rules)),
        }
    pprint.pprint(pins, width=76)
