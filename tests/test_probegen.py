"""Tests for the probe generator: end-to-end Table 1 compliance,
unmonitorable detection, rule-kind coverage, and the §5.4 filter."""

import pytest

from action_helpers import multicast
from repro.core.constraints import ConstraintCompiler
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
from repro.sat.solver import SatSolver

CATCH = Match.build(dl_vlan=0xF03)
SRC = 0x0A000001
DST = 0x0A000002


def generator(**kwargs):
    return ProbeGenerator(catch_match=CATCH, **kwargs)


def table_of(*rules):
    table = FlowTable()
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


    def test_ports_share_one_conflict_budget(self, monkeypatch):
        # The four quarters of the probed /8 forward as it does: no
        # probe exists on any port, and each port's solve must branch
        # to find that out.
        hot = Rule(100, Match.build(nw_dst=(0x0A000000, 8)), output(2))
        quarters = [
            Rule(50 - i, Match.build(
                nw_dst=(0x0A000000 + (i << 22), 10)
            ), output(2))
            for i in range(4)
        ]
        table = table_of(hot, *quarters)
        solves = []
        original = SatSolver.solve

        def recording(self, max_conflicts=None):
            result = original(self, max_conflicts=max_conflicts)
            solves.append((max_conflicts, result.conflicts))
            return result

        monkeypatch.setattr(SatSolver, "solve", recording)
        ports = (7, 3, 5)
        result = generator(
            valid_in_ports=ports, max_conflicts=100
        ).generate(table, hot)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        budgets = [budget for budget, _ in solves]
        spent = [conflicts for _, conflicts in solves]
        assert len(solves) == len(ports) and min(spent) > 0
        assert budgets == [100 - sum(spent[:i]) for i in range(len(ports))]
        assert result.solver_conflicts == sum(spent)
        # A budget the first port spends leaves the second too little:
        # the loop stops there, and the third port is never tried.
        solves.clear()
        result = generator(
            valid_in_ports=ports, max_conflicts=spent[0]
        ).generate(table, hot)
        assert result.reason is UnmonitorableReason.BUDGET_EXCEEDED
        assert len(solves) == 2
        assert result.solver_conflicts == sum(c for _, c in solves)

    def test_budget_overrun_by_an_unsat_solve_ends_the_ports(
        self, monkeypatch
    ):
        # A solve meets one conflict past its budget when that conflict
        # proves UNSAT.  The next port must not be handed what is left
        # (a negative budget): the generation stops, over budget.
        hot = Rule(100, Match.build(nw_dst=(0x0A000000, 8)), output(2))
        quarters = [
            Rule(
                50 - i,
                Match.build(nw_dst=(0x0A000000 + (i << 22), 10)),
                output(2),
            )
            for i in range(4)
        ]
        table = table_of(hot, *quarters)
        folded, solves = [], []
        assert_probe = ConstraintCompiler.assert_probe
        solve = SatSolver.solve

        def folding(self, rule, avoid, lower, catch, in_port):
            folded.append(in_port)
            return assert_probe(self, rule, avoid, lower, catch, in_port)

        def solving(self, max_conflicts=None):
            result = solve(self, max_conflicts=max_conflicts)
            solves.append((max_conflicts, result.conflicts))
            return result

        monkeypatch.setattr(ConstraintCompiler, "assert_probe", folding)
        monkeypatch.setattr(SatSolver, "solve", solving)
        result = generator(
            valid_in_ports=(3, 1, 2), max_conflicts=1
        ).generate(table, hot)
        assert result.reason is UnmonitorableReason.BUDGET_EXCEEDED
        assert result.solver_conflicts == 2
        assert folded == [1]
        assert solves == [(1, 2)]

    def test_empty_port_domain_is_refused(self):
        with pytest.raises(ValueError, match="no port"):
            generator(valid_in_ports=())


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
    """A probe's constraints live in the solver of its one generation:
    the context generates exactly as the cold generator does, and
    nothing of one probe outlives ``probe_for``, however the solve
    ends."""

    def _context(self, *rules, **config):
        context = ProbeGenContext(generator(**config))
        for rule in rules:
            context.add_rule(rule)
        return context

    def _rules(self):
        """The probed /8 with a rule above it, a drop inside it and, in
        its lower half, a /16 forwarding as it does: that branch keeps
        the /8's Distinguish chain live through the fold."""
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
        floor = Rule(
            priority=10,
            match=Match.build(nw_dst=(0x0A000000, 16)),
            actions=output(2),
        )
        return hot, below, above, floor

    @staticmethod
    def _assert_cold(context, result):
        """``result`` is what the cold generator returns for its rule
        on the context's table: the same verdict, probe and instance."""
        cold = ProbeGenerator(
            catch_match=CATCH,
            max_conflicts=context.generator.max_conflicts,
        ).generate(context.table, result.rule)
        assert (result.ok, result.reason, result.header) == (
            cold.ok, cold.reason, cold.header
        )
        assert (result.cnf_vars, result.cnf_clauses) == (
            cold.cnf_vars, cold.cnf_clauses
        )
        assert result.solver_conflicts == cold.solver_conflicts

    def test_satisfiable_solve_retires_its_chain(self):
        context = self._context(*self._rules())
        hot = self._rules()[0]
        result = context.probe_for(hot)
        assert result.ok
        valid, why = verify_probe(context.table, hot, result.header, CATCH)
        assert valid, why
        self._assert_cold(context, result)

    def test_unsatisfiable_solve_retires_its_chain(self):
        # A drop rule over a drop that covers it: the forwarding /16
        # under both keeps the chain live, but a probe for the upper
        # drop always lands on the lower one first.
        hot, below, above, floor = self._rules()
        drain = Rule(
            priority=40,
            match=Match.build(nw_dst=(0x0A000004, 30)),
            actions=drop(),
        )
        context = self._context(hot, below, above, floor, drain)
        result = context.probe_for(below)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        self._assert_cold(context, result)

    def test_constant_true_chain_opens_no_group(self):
        # A forwarding rule over a drop and the table miss: every
        # branch of its chain is true.
        hot, below, above, _floor = self._rules()
        context = self._context(hot, below, above)
        result = context.probe_for(hot)
        valid, why = verify_probe(context.table, hot, result.header, CATCH)
        assert valid, why
        self._assert_cold(context, result)

    def test_constant_false_chain_skips_its_solve(self, monkeypatch):
        # A drop rule with only the table miss below it: present and
        # absent both drop, whatever the probe — no engine solves.
        from repro.sat.solver import SatSolver

        def no_solve(*args, **kwargs):
            raise AssertionError("a folded chain was solved")

        monkeypatch.setattr(SatSolver, "solve", no_solve)
        hot, below, above, _floor = self._rules()
        context = self._context(hot, below, above)
        result = context.probe_for(below)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        assert context.stats.probes_generated == 1
        result = generator().generate(context.table, below)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        # The §3.2 refusal still comes first, in both paths.
        rewriting = hot.with_actions(output(4, dl_vlan=7))
        refused = self._context(rewriting, below, above)
        with pytest.raises(ValueError, match="probe-reserved"):
            refused.probe_for(below)
        with pytest.raises(ValueError, match="probe-reserved"):
            generator().generate(refused.table, below)

    def test_exhausted_budget_retires_its_chain(self):
        # The four quarters of the probed /8 forward as it does, so no
        # probe exists, and the solver must branch to find that out.
        hot = self._rules()[0]
        quarters = [
            Rule(
                priority=50 - i,
                match=Match.build(nw_dst=(0x0A000000 + (i << 22), 10)),
                actions=output(2),
            )
            for i in range(4)
        ]
        context = self._context(hot, *quarters, max_conflicts=0)
        result = context.probe_for(hot)
        assert result.reason is UnmonitorableReason.BUDGET_EXCEEDED
        assert result.solver_conflicts == 1
        self._assert_cold(context, result)
        # With a budget the same instance is a proof, not a timeout.
        patient = self._context(hot, *quarters)
        result = patient.probe_for(hot)
        assert result.reason is UnmonitorableReason.UNSATISFIABLE
        self._assert_cold(patient, result)

    def test_refused_table_opens_no_group(self):
        hot, below, above, floor = self._rules()
        context = self._context(
            hot, below.with_actions(output(4, dl_vlan=7)), above, floor
        )
        with pytest.raises(ValueError, match="probe-reserved"):
            context.probe_for(hot)
        assert context.stats.probes_generated == 0

    def test_chain_is_retired_when_emission_raises(self, monkeypatch):
        import repro.core.constraints as constraints

        hot = self._rules()[0]
        context = self._context(*self._rules())
        emit = constraints.assert_if_chain

        def half_emitted(sink, branches, else_value):
            emit(sink, branches[:1], True)
            raise RuntimeError("mid-emission")

        monkeypatch.setattr(constraints, "assert_if_chain", half_emitted)
        with pytest.raises(RuntimeError, match="mid-emission"):
            context.probe_for(hot)
        # The half-emitted chain binds nothing: the next solve is sound.
        monkeypatch.setattr(constraints, "assert_if_chain", emit)
        result = context.probe_for(hot)
        valid, why = verify_probe(context.table, hot, result.header, CATCH)
        assert valid, why
        self._assert_cold(context, result)

    def test_regenerated_probe_without_lower_overlap_adds_nothing(self):
        # Rules to avoid are one residual clause each, a forwarding
        # rule over the table miss has no chain: every regeneration on
        # the same table is the same instance and the same probe.
        hot, _below, above, _floor = self._rules()
        context = self._context(hot, above)
        first = context.probe_for(hot)
        assert first.ok
        for _ in range(3):
            context._cache.clear()  # force a real solve on the same table
            result = context.probe_for(hot)
            valid, why = verify_probe(context.table, hot, result.header, CATCH)
            assert valid, why
            assert result.header == first.header
            assert (result.cnf_vars, result.cnf_clauses) == (
                first.cnf_vars, first.cnf_clauses
            )
        assert context.stats.probes_generated == 4
        self._assert_cold(context, result)

    def test_resolve_follows_a_lower_rules_new_actions(self):
        hot, below, above, floor = self._rules()
        context = self._context(hot, below, above, floor)
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
        self._assert_cold(context, result)


class TestEqualPriorityOverlap:
    """Two overlapping rules of one priority: which of them a switch
    applies is undefined (paper footnote 1), and a table accepts
    both, so a probe for either avoids the other.  Regression: the tied rule was in neither ``higher`` nor
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
