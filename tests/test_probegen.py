"""Tests for the probe generator: end-to-end Table 1 compliance,
unmonitorable detection, rule-kind coverage, and the §5.4 filter."""

import pytest

from action_helpers import multicast
from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    UnmonitorableReason,
    expected_outcomes,
    verify_probe,
)
from repro.openflow.actions import drop, ecmp, output
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable

CATCH = Match.build(dl_vlan=0xF03)
SRC = 0x0A000001
DST = 0x0A000002


def generator(**kwargs):
    return ProbeGenerator(catch_match=CATCH, **kwargs)


def table_of(*rules):
    table = FlowTable(check_overlap=False)
    for rule in rules:
        table.install(rule)
    return table


class TestBasicUnicast:
    def test_simple_rule_over_default(self):
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(2)
        )
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        table = table_of(probed, default)
        result = generator().generate(table, probed)
        assert result.ok
        assert verify_probe(
            table, probed, result.header, CATCH
        ) == (True, "ok")
        assert result.header[FieldName.DL_VLAN] == 0xF03
        assert result.packet is not None and len(result.packet) > 20

    def test_paper_3_1_example(self):
        rlowest = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        rlower = Rule(
            priority=5, match=Match.build(nw_src=SRC), actions=output(2)
        )
        rprobed = Rule(
            priority=10, match=Match.build(
                nw_src=SRC, nw_dst=DST
            ), actions=output(1)
        )
        table = table_of(rlowest, rlower, rprobed)
        result = generator().generate(table, rprobed)
        assert result.ok
        # The only valid probe is (srcIP=10.0.0.1, dstIP=10.0.0.2).
        assert result.header[FieldName.NW_SRC] == SRC
        assert result.header[FieldName.NW_DST] == DST
        assert verify_probe(table, rprobed, result.header, CATCH)[0]

    def test_probe_avoids_higher_priority_rules(self):
        probed = Rule(
            priority=5, match=Match.build(
                nw_dst=(0x0A000000, 24)
            ), actions=output(2)
        )
        shadow = Rule(
            priority=9, match=Match.build(nw_dst=DST), actions=output(3)
        )
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        table = table_of(probed, shadow, default)
        result = generator().generate(table, probed)
        assert result.ok
        assert result.header[FieldName.NW_DST] != DST
        assert verify_probe(table, probed, result.header, CATCH)[0]

    def test_outcomes_reported(self):
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(2)
        )
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        table = table_of(probed, default)
        result = generator().generate(table, probed)
        assert result.outcome_present.ports() == {2}
        assert result.outcome_absent.ports() == {1}
        assert result.expects_return()


class TestUnmonitorable:
    def test_fully_shadowed_rule(self):
        primary = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(1)
        )
        backup = Rule(
            priority=5, match=Match.build(nw_dst=DST), actions=output(2)
        )
        table = table_of(primary, backup)
        result = generator().generate(table, backup)
        assert not result.ok
        assert result.reason == UnmonitorableReason.UNSATISFIABLE

    def test_same_outcome_as_default(self):
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(1)
        )
        table = table_of(default, probed)
        result = generator().generate(table, probed)
        assert not result.ok

    def test_catch_conflict_unmonitorable(self):
        # The rule pins dl_vlan to a non-reserved value: the probe cannot
        # both hit it and match the catching rule.
        probed = Rule(
            priority=10, match=Match.build(dl_vlan=5), actions=output(1)
        )
        table = table_of(probed)
        result = generator().generate(table, probed)
        assert not result.ok

    def test_drop_over_drop_default_unmonitorable(self):
        default = Rule(priority=0, match=Match.wildcard(), actions=drop())
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=drop()
        )
        table = table_of(default, probed)
        assert not generator().generate(table, probed).ok


class TestRewriteRules:
    def test_rewrite_distinguishes_same_port(self):
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        probed = Rule(
            priority=10,
            match=Match.build(nw_src=SRC),
            actions=output(1, nw_tos=0x2A),
        )
        table = table_of(default, probed)
        result = generator().generate(table, probed)
        assert result.ok
        assert result.header[FieldName.NW_TOS] != 0x2A
        assert verify_probe(table, probed, result.header, CATCH)[0]

    def test_probe_generator_refuses_reserved_field_rewrites(self):
        bad = Rule(
            priority=5,
            match=Match.build(nw_src=SRC),
            actions=output(1, dl_vlan=0xF03),
        )
        table = table_of(bad)
        with pytest.raises(ValueError):
            generator().generate(table, bad)


class TestDropRules:
    def test_negative_probe_for_drop(self):
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=drop()
        )
        table = table_of(default, probed)
        result = generator().generate(table, probed)
        assert result.ok
        assert result.outcome_present.is_drop()
        assert not result.expects_return()
        assert result.outcome_absent.ports() == {1}
        assert verify_probe(table, probed, result.header, CATCH)[0]


class TestMulticastEcmp:
    def test_multicast_vs_unicast(self):
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        probed = Rule(
            priority=10, match=Match.build(
                nw_dst=DST
            ), actions=multicast([1, 2])
        )
        table = table_of(default, probed)
        result = generator().generate(table, probed)
        assert result.ok
        assert verify_probe(table, probed, result.header, CATCH)[0]

    def test_ecmp_over_member_unicast_unmonitorable(self):
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=ecmp([1, 2])
        )
        table = table_of(default, probed)
        # ECMP may pick port 1 = the default's port: ambiguous.
        assert not generator().generate(table, probed).ok

    def test_ecmp_disjoint_from_default(self):
        default = Rule(priority=0, match=Match.wildcard(), actions=output(5))
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=ecmp([1, 2])
        )
        table = table_of(default, probed)
        result = generator().generate(table, probed)
        assert result.ok
        assert result.outcome_present.ecmp
        assert verify_probe(table, probed, result.header, CATCH)[0]


class TestInPortHandling:
    def test_valid_in_ports_respected(self):
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(2)
        )
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        table = table_of(probed, default)
        result = generator(valid_in_ports=(3, 7)).generate(table, probed)
        assert result.ok
        assert result.header[FieldName.IN_PORT] in (3, 7)

    def test_in_port_match_conflicting_with_valid_ports(self):
        probed = Rule(
            priority=10, match=Match.build(
                in_port=9, nw_dst=DST
            ), actions=output(2)
        )
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        table = table_of(probed, default)
        result = generator(valid_in_ports=(3, 7)).generate(table, probed)
        assert not result.ok


class TestOverlapFilter:
    def build_big_table(self):
        rules = [
            Rule(
                priority=100 + i,
                match=Match.build(nw_dst=0x14000000 + i),
                actions=output(1 + i % 3),
            )
            for i in range(50)
        ]
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(2)
        )
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        return table_of(probed, default, *rules), probed

    def test_filter_preserves_probe_validity(self):
        table, probed = self.build_big_table()
        result = generator().generate(table, probed)
        assert verify_probe(table, probed, result.header, CATCH)[0]


class TestExpectedOutcomes:
    def test_present_and_absent(self):
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(2)
        )
        default = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        table = table_of(probed, default)
        header = {FieldName.NW_DST: DST}
        present, absent = expected_outcomes(table, probed, header)
        assert present.ports() == {2}
        assert absent.ports() == {1}

    def test_absent_to_miss_drop(self):
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(2)
        )
        table = table_of(probed)
        present, absent = expected_outcomes(
            table, probed, {FieldName.NW_DST: DST}
        )
        assert present.ports() == {2}
        assert absent.is_drop()


class TestStatsAndBudget:
    def test_generation_time_recorded(self):
        probed = Rule(
            priority=10, match=Match.build(nw_dst=DST), actions=output(2)
        )
        table = table_of(
            probed, Rule(priority=0, match=Match.wildcard(), actions=output(1))
        )
        result = generator().generate(table, probed)
        from repro.openflow.fields import HEADER_BITS

        assert result.generation_time > 0
        assert result.cnf_vars >= HEADER_BITS  # header bits + Tseitin vars


class TestTransientChain:
    """What is specific to one probe is assumed for one solve: no clause
    group outlives ``probe_for``, however the solve ends."""

    def _context(self, *rules, **config):
        context = ProbeGenContext(generator(**config))
        for rule in rules:
            context.add_rule(rule)
        return context

    def _rules(self):
        hot = Rule(
            priority=100,
            match=Match.build(nw_dst=(0x0A000000, 8)),
            actions=output(2),
        )
        below = Rule(
            priority=50,
            match=Match.build(nw_dst=0x0A000005),
            actions=drop(),
        )
        above = Rule(
            priority=200,
            match=Match.build(nw_dst=0x0A000009),
            actions=output(3),
        )
        return hot, below, above

    @staticmethod
    def _assert_no_group_left(context, created):
        solver = context.solver
        assert solver.stats.groups_created == created
        assert solver.stats.groups_retired == created
        assert not solver._groups and not solver._group_vars
        # What is left is the permanent definitions alone: every other
        # clause the core holds is dead, or a selector's retiring unit.
        core = solver._solver
        assert core.num_clauses == (
            solver.num_clauses + solver.dead_clauses + created
        )

    def test_satisfiable_solve_retires_its_chain(self):
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        result = context.probe_for(hot)
        assert result.ok
        valid, why = verify_probe(context.table, hot, result.header, CATCH)
        assert valid, why
        self._assert_no_group_left(context, created=1)
        # The instance is sized as solved: its chain was one clause.
        assert result.cnf_clauses == context.solver.num_clauses + 1

    def test_unsatisfiable_solve_retires_its_chain(self):
        # A drop rule with only the table miss below it: present and
        # absent both drop, the chain is the constant false.
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        result = context.probe_for(below)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        self._assert_no_group_left(context, created=1)

    def test_exhausted_budget_retires_its_chain(self):
        # The two halves of the probed /8 forward as it does, so the
        # chain's propagation alone runs into a conflict.
        hot = self._rules()[0]
        halves = [
            Rule(
                priority=50 - i,
                match=Match.build(nw_dst=(0x0A000000 + (i << 23), 9)),
                actions=output(2),
            )
            for i in range(2)
        ]
        context = self._context(hot, *halves, max_conflicts=0)
        result = context.probe_for(hot)
        assert result.reason is UnmonitorableReason.BUDGET_EXCEEDED
        assert result.solver_conflicts == 1
        self._assert_no_group_left(context, created=1)
        # With a budget the same instance is a proof, not a timeout.
        patient = self._context(hot, *halves)
        result = patient.probe_for(hot)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        self._assert_no_group_left(patient, created=1)

    def test_refused_table_opens_no_group(self):
        hot, below, above = self._rules()
        context = self._context(
            hot, below.with_actions(output(4, dl_vlan=7)), above
        )
        with pytest.raises(ValueError, match="probe-reserved"):
            context.probe_for(hot)
        self._assert_no_group_left(context, created=0)

    def test_chain_is_retired_when_emission_raises(self, monkeypatch):
        import repro.core.constraints as constraints

        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        emit = constraints.assert_ite_chain

        def half_emitted(sink, branches, else_value):
            emit(sink, branches[:1], True)
            raise RuntimeError("mid-emission")

        monkeypatch.setattr(constraints, "assert_ite_chain", half_emitted)
        with pytest.raises(RuntimeError, match="mid-emission"):
            context.probe_for(hot)
        self._assert_no_group_left(context, created=1)
        # The half-emitted chain binds nothing: the next solve is sound.
        monkeypatch.setattr(constraints, "assert_ite_chain", emit)
        result = context.probe_for(hot)
        valid, why = verify_probe(context.table, hot, result.header, CATCH)
        assert valid, why
        self._assert_no_group_left(context, created=2)

    def test_regenerated_probe_without_lower_overlap_adds_nothing(self):
        # Rules to avoid are negated guards, a forwarding rule over the
        # table miss has no chain: once the guards exist, a re-solve
        # leaves the solver exactly as large as it found it.
        hot, _below, above = self._rules()
        context = self._context(hot, above)
        assert context.probe_for(hot).ok
        size = (context.solver.num_vars, context.solver.num_clauses)
        for _ in range(3):
            context._cache.clear()  # force a real solve on the same table
            result = context.probe_for(hot)
            valid, why = verify_probe(context.table, hot, result.header, CATCH)
            assert valid, why
        assert context.stats.probes_generated == 4
        assert (context.solver.num_vars, context.solver.num_clauses) == size
        self._assert_no_group_left(context, created=0)

    def test_resolve_follows_a_lower_rules_new_actions(self):
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        assert context.probe_for(hot).ok
        # The lower rule now forwards exactly as the hot rule does: a
        # probe landing on it no longer distinguishes.
        context.add_rule(below.with_actions(output(2)))
        context._cache.clear()  # the cached probe never met `below`
        result = context.probe_for(hot)
        assert result.ok
        assert not below.match.matches(result.header)
        valid, why = verify_probe(context.table, hot, result.header, CATCH)
        assert valid, why
        self._assert_no_group_left(context, created=2)


class TestEqualPriorityOverlap:
    """Two overlapping rules of one priority: which of them a switch
    applies is undefined (paper footnote 1), and every live table is
    built with ``check_overlap=False``, so a probe for either avoids
    the other.  Regression: the tied rule was in neither ``higher`` nor
    ``lower``; the context's own re-simulation then raised out of
    ``probe_for``, and the cold generator stayed sound only while its
    fresh phases happened to miss the tied match."""

    @staticmethod
    def _prober(engine, table):
        """``rule -> ProbeResult``; one context serves a whole table,
        so a later probe starts from the phases an earlier one saved."""
        if engine == "cold":
            return lambda rule: generator().generate(table, rule)
        return ProbeGenContext(generator(), table=table.copy()).probe_for

    # The second prefix is where an all-zero model lands.
    @pytest.mark.parametrize("dst", [0x0A000000, 0x00000000])
    @pytest.mark.parametrize("engine", ["cold", "context"])
    def test_probe_is_sound_under_either_tie_break(self, engine, dst):
        rules = (
            Rule(10, Match.build(dl_type=0x800, nw_dst=(dst, 8)), output(1)),
            Rule(
                10,
                Match.build(dl_type=0x800, nw_src=(0x0B000000, 8)),
                output(2),
            ),
        )
        orders = [table_of(*rules), table_of(*reversed(rules))]
        for table in orders:
            probe = self._prober(engine, table)
            for rule, tied in (rules, reversed(rules)):
                result = probe(rule)
                assert result.ok, result.reason
                assert not tied.match.matches(result.header)
                for installed in orders:
                    valid, why = verify_probe(
                        installed, rule, result.header, CATCH
                    )
                    assert valid, why

    @pytest.mark.parametrize("engine", ["cold", "context"])
    def test_unavoidable_tie_is_visibly_unsatisfiable(self, engine):
        wide = Rule(10, Match.build(nw_dst=(0x0A000000, 8)), output(1))
        inside = Rule(10, Match.build(nw_dst=0x0A000005), output(2))
        table = table_of(wide, inside)
        probe = self._prober(engine, table)
        result = probe(inside)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        result = probe(wide)
        assert result.ok and not inside.match.matches(result.header)

    def test_cached_probe_a_new_tied_rule_catches_is_resolved(self):
        probed = Rule(10, Match.build(nw_src=(0x0B000000, 8)), output(2))
        context = ProbeGenContext(generator())
        context.add_rule(probed)
        first = context.probe_for(probed)
        tied = Rule(
            10,
            Match.build(nw_dst=first.header[FieldName.NW_DST]),
            output(1),
        )
        context.add_rule(tied)
        second = context.probe_for(probed)
        assert context.stats.revalidations == 0
        assert second.ok and not tied.match.matches(second.header)


class TestBranchingHeapBound:
    """Regression: the core solver's lazy branching heap grew by one
    stale entry per unwound variable per solve (~34,000 entries on 512
    variables after a 256-probe cycle) until a compaction happened to
    rebuild the solver.  A satisfiable solve now drains it."""

    def test_heap_bounded_by_the_variable_count(self):
        # A fleet switch's shape: a neighbour's catching rule on top of
        # every host rule, and an in_port domain.
        context = ProbeGenContext(generator(valid_in_ports=(1, 2)))
        context.add_rule(Rule(65535, Match.build(dl_vlan=0xF01), output(9)))
        probed, shadowed = [], []
        for i in range(300):
            match = Match.build(nw_dst=0x60000000 + i)
            rule = Rule(100, match, output(1 + i % 2))
            context.add_rule(rule)
            probed.append(rule)
            if i < 4:
                # Same match, lower priority: nothing can hit it.
                hidden = Rule(40, match, output(3))
                context.add_rule(hidden)
                shadowed.append(hidden)

        def heap_and_vars():
            core = context.solver._solver
            return len(core._heap), core.num_vars

        for rule in probed:
            assert context.probe_for(rule).ok
            entries, num_vars = heap_and_vars()
            assert entries <= num_vars
        assert context.stats.probes_generated == 300

        for _ in range(10):
            context._cache.clear()
            for rule in shadowed:
                result = context.probe_for(rule)
                assert result.reason is UnmonitorableReason.UNSATISFIABLE
        assert context.probe_for(probed[0]).ok
        entries, num_vars = heap_and_vars()
        assert entries <= num_vars
