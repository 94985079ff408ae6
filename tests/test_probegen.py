"""Tests for the probe generator: end-to-end Table 1 compliance,
unmonitorable detection, rule-kind coverage, and the §5.4 filter."""

import pytest

from repro.core.probegen import (
    ProbeGenerator,
    UnmonitorableReason,
    expected_outcomes,
    verify_probe,
)
from repro.openflow.actions import drop, ecmp, multicast, output
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


class TestPersistentChains:
    """Persistent per-rule probe groups in ProbeGenContext."""

    def _context(self, *rules):
        from repro.core.probegen import ProbeGenContext

        context = ProbeGenContext(generator())
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

    def test_chain_reused_across_probes(self):
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        assert context.probe_for(hot).ok
        context.clear_cache()  # force a real solve, same table
        assert context.probe_for(hot).ok
        assert context.stats.chain_emits == 1
        assert context.stats.chain_reuses == 1
        assert context.stats.chain_retractions == 0

    def test_chain_survives_remove_readd_churn(self):
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        assert context.probe_for(hot).ok
        context.remove_rule(below)
        context.add_rule(below)
        context.clear_cache()
        assert context.probe_for(hot).ok
        # The overlap context is unchanged, so the chain group (and via
        # the solver's model cache, the whole solve) is reused.
        assert context.stats.chain_emits == 1
        assert context.stats.chain_reuses == 1

    def test_chain_retracted_when_lower_overlap_churns(self):
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        assert context.probe_for(hot).ok
        # Change the lower rule's behaviour: the Distinguish chain for
        # the hot rule is stale and must be re-emitted.
        context.add_rule(below.with_actions(output(4)))
        context.clear_cache()
        result = context.probe_for(hot)
        assert result.ok
        assert context.stats.chain_emits == 2
        assert context.stats.chain_retractions == 1
        valid, why = verify_probe(context.table, hot, result.header, CATCH)
        assert valid, why

    def test_chain_kept_when_higher_actions_churn(self):
        # Higher rules enter the constraints only via their matches;
        # an action change above the probed rule must not retract.
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        assert context.probe_for(hot).ok
        context.add_rule(above.with_actions(output(5)))
        context.clear_cache()
        assert context.probe_for(hot).ok
        assert context.stats.chain_emits == 1
        assert context.stats.chain_reuses == 1

    def test_chain_retired_with_rule_removal(self):
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        assert context.probe_for(hot).ok
        retired_before = context.solver.stats.groups_retired
        context.remove_rule(hot)
        assert context.solver.stats.groups_retired == retired_before + 1
        assert context.stats.chain_retractions == 1

    def test_chain_lru_eviction_bounds_live_vars(self):
        from repro.core.probegen import ProbeGenContext

        context = ProbeGenContext(generator())
        context._chain_budget = lambda: 4  # tiny budget for the test
        rules = []
        for i in range(6):
            probed = Rule(
                priority=100 + i,
                match=Match.build(nw_dst=(0x0A000000 + (i << 16), 16)),
                actions=output(2 + i % 3),
            )
            lower = Rule(
                priority=10 + i,
                match=Match.build(nw_dst=0x0A000001 + (i << 16)),
                actions=drop(),
            )
            context.add_rule(probed)
            context.add_rule(lower)
            rules.append(probed)
        for rule in rules:
            context.probe_for(rule)
        assert context._chain_vars <= 4 + max(
            context.solver.group_size(group)
            for group, _sig in context._chains.values()
        )
        assert context.stats.chain_retractions > 0
        # Evicted chains re-emit and still produce valid probes.
        context.clear_cache()
        for rule in rules:
            result = context.probe_for(rule)
            assert result.ok
            valid, why = verify_probe(
                context.table, rule, result.header, CATCH
            )
            assert valid, why

    def test_fork_is_independent_and_byte_identical(self):
        hot, below, above = self._rules()
        context = self._context(hot, below, above)
        first = context.probe_for(hot)
        fork = context.fork()
        # Same churn on both sides -> byte-identical probes.
        change = below.with_actions(output(4))
        context.add_rule(change)
        fork.add_rule(change)
        context.clear_cache()
        fork.clear_cache()
        a = context.probe_for(hot)
        b = fork.probe_for(hot)
        assert a.packet == b.packet and a.header == b.header
        # Diverging the fork does not touch the original.
        fork.remove_rule(above)
        assert context.table.get(*above.key()) is not None
        assert fork.table.get(*above.key()) is None
        again = context.probe_for(hot)
        assert again.packet == first.packet or again.ok


class TestBranchingHeapBound:
    """Regression: the core solver's lazy branching heap grew by one
    stale entry per unwound variable per solve (~34,000 entries on 512
    variables after a 256-probe cycle) until a compaction happened to
    rebuild the solver.  A satisfiable solve now drains it."""

    def test_heap_bounded_by_the_variable_count(self):
        from repro.core.probegen import ProbeGenContext

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
            context.clear_cache()
            for rule in shadowed:
                result = context.probe_for(rule)
                assert result.reason is UnmonitorableReason.UNSATISFIABLE
        assert context.solver.stats.model_cache_hits == 0
        assert context.probe_for(probed[0]).ok
        entries, num_vars = heap_and_vars()
        assert entries <= num_vars
