"""Quality tests on the ACL datasets: every probe the generator emits
for these realistic tables must pass independent verification, and the
unmonitorable verdicts must have identifiable §3.5 causes."""

import random

import pytest

from repro.core.probegen import (
    ProbeGenerator,
    UnmonitorableReason,
    verify_probe,
)
from repro.datasets import campus_table, stanford_table
from repro.openflow.match import Match

CATCH = Match.build(dl_vlan=0xF03)


@pytest.fixture(scope="module")
def table():
    return stanford_table(seed=77)


@pytest.fixture(scope="module")
def sample(table):
    rng = random.Random(5)
    return rng.sample(table.rules(), 80)


@pytest.fixture(scope="module")
def results(table, sample):
    generator = ProbeGenerator(catch_match=CATCH)
    return [(rule, generator.generate(table, rule)) for rule in sample]


class TestProbeQuality:
    def test_every_probe_verifies(self, table, results):
        for rule, result in results:
            if result.ok:
                valid, why = verify_probe(table, rule, result.header, CATCH)
                assert valid, (why, rule)

    def test_probes_are_wire_valid(self, results):
        from repro.packets.parse import parse_packet

        for _rule, result in results:
            if result.ok:
                header, _ = parse_packet(result.packet)
                # The reserved VLAN survives crafting.
                from repro.openflow.fields import HEADER, FieldName

                assert HEADER.unpack(header)[FieldName.DL_VLAN] == 0xF03

    def test_majority_monitorable(self, results):
        found = sum(1 for _r, result in results if result.ok)
        assert found / len(results) > 0.7

    def test_unmonitorable_reasons_are_structural(self, table, results):
        """Every UNSAT verdict has a §3.5 explanation: shadowed by
        higher-priority rules, or no outcome difference vs the rule
        below."""
        for rule, result in results:
            if result.ok:
                continue
            assert result.reason is UnmonitorableReason.UNSATISFIABLE
            higher = [
                r
                for r in table.overlapping(rule.match)
                if r.priority > rule.priority
            ]
            lower = [
                r
                for r in table.overlapping(rule.match)
                if r.priority < rule.priority
            ]
            shadowed = any(r.match.covers(rule.match) for r in higher)
            same_outcome_below = any(
                r.match.covers(rule.match)
                and r.forwarding_set() == rule.forwarding_set()
                for r in lower
            )
            drop_over_drop_miss = (
                not rule.forwarding_set()
                and not any(r.forwarding_set() for r in lower)
            )
            assert shadowed or same_outcome_below or drop_over_drop_miss, rule

    def test_overlap_filter_stats_small(self, results):
        """The §5.4 premise: rules overlap only a handful of others."""
        overlaps = [result.overlapping_rules for _r, result in results]
        assert sorted(overlaps)[len(overlaps) // 2] < 100  # median


#: The solves of a census of every non-default rule of both ACL tables,
#: seeds 1-20, that met the most conflicts under the DPLL solver
#: (chronological backtracking, no learning): (table, seed, index among
#: the non-default rules, that rule's priority, conflicts met).  The
#: CDCL solver it replaced met 2 conflicts on each and found a probe
#: for each too.
HARDEST = {
    "campus_4_worst_of_census": (campus_table, 4, 10007, 950, 18),
    "stanford_1_worst_of_seed": (stanford_table, 1, 950, 1804, 7),
}


@pytest.mark.parametrize("name", sorted(HARDEST))
def test_hardest_census_instance_gets_a_verified_probe(name):
    build, seed, index, priority, conflicts = HARDEST[name]
    table = build(seed=seed)
    rule = [r for r in table.rules() if r.priority > 0][index]
    assert rule.priority == priority, "the dataset no longer has this rule"
    result = ProbeGenerator(catch_match=CATCH).generate(table, rule)
    assert result.ok, result.reason
    assert result.solver_conflicts == conflicts
    valid, why = verify_probe(table, rule, result.header, CATCH)
    assert valid, why
