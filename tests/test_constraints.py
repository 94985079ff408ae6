"""Tests for the constraint compiler: Table 1 encodings and DiffOutcome
analysis across rule kinds (§3.1-3.4)."""

import pytest

from action_helpers import multicast
from repro.core.constraints import ConstraintCompiler, DistinguishEncoding
from repro.openflow.actions import drop, ecmp, output
from repro.openflow.fields import FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.sat.solver import solve


def decode(compiler, result):
    assert result.satisfiable
    return compiler.decode_assignment(result.assignment)


class TestMatchesEncoding:
    def test_assert_matches_forces_field(self):
        compiler = ConstraintCompiler()
        compiler.assert_matches(Match.build(nw_src=0x0A000001))
        values = decode(compiler, solve(compiler.cnf))
        assert values[FieldName.NW_SRC] == 0x0A000001

    def test_assert_not_matches_excludes(self):
        compiler = ConstraintCompiler()
        compiler.assert_matches(Match.build(dl_vlan=5))
        compiler.assert_not_matches(Match.build(dl_vlan=5))
        assert solve(compiler.cnf).satisfiable is False

    def test_not_matches_wildcard_is_unsat(self):
        compiler = ConstraintCompiler()
        compiler.assert_not_matches(Match.wildcard())
        assert solve(compiler.cnf).satisfiable is False

    def test_prefix_match_constrains_only_prefix(self):
        compiler = ConstraintCompiler()
        compiler.assert_matches(Match.build(nw_dst=(0x0A000000, 8)))
        values = decode(compiler, solve(compiler.cnf))
        assert (values[FieldName.NW_DST] >> 24) == 0x0A

    def test_value_in_small_domain(self):
        compiler = ConstraintCompiler()
        compiler.assert_value_in(FieldName.IN_PORT, [3, 5])
        values = decode(compiler, solve(compiler.cnf))
        assert values[FieldName.IN_PORT] in (3, 5)

    def test_value_in_conflicts_with_match(self):
        compiler = ConstraintCompiler()
        compiler.assert_matches(Match.build(in_port=7))
        compiler.assert_value_in(FieldName.IN_PORT, [3, 5])
        assert solve(compiler.cnf).satisfiable is False


class TestDiffPorts:
    def rule(self, actions, priority=5, **match):
        return Rule(
            priority=priority, match=Match.build(**match), actions=actions
        )

    def test_unicast_different_ports(self):
        compiler = ConstraintCompiler()
        assert compiler.diff_outcome(
            self.rule(output(1)), self.rule(output(2))
        ) is True

    def test_unicast_same_port_no_rewrites(self):
        compiler = ConstraintCompiler()
        assert compiler.diff_outcome(
            self.rule(output(1)), self.rule(output(1))
        ) is False

    def test_drop_vs_unicast(self):
        compiler = ConstraintCompiler()
        assert compiler.diff_outcome(
            self.rule(drop()), self.rule(output(1))
        ) is True

    def test_drop_vs_drop(self):
        compiler = ConstraintCompiler()
        assert compiler.diff_outcome(
            self.rule(drop()), self.rule(drop())
        ) is False

    def test_drop_vs_table_miss(self):
        compiler = ConstraintCompiler()
        assert compiler.diff_outcome(self.rule(drop()), None) is False

    def test_forward_vs_table_miss(self):
        compiler = ConstraintCompiler()
        assert compiler.diff_outcome(self.rule(output(1)), None) is True

    def test_multicast_different_sets(self):
        compiler = ConstraintCompiler()
        assert (
            compiler.diff_outcome(
                self.rule(multicast([1, 2])), self.rule(multicast([1, 3]))
            )
            is True
        )

    def test_multicast_same_sets_no_rewrites(self):
        compiler = ConstraintCompiler()
        assert (
            compiler.diff_outcome(
                self.rule(multicast([1, 2])), self.rule(multicast([1, 2]))
            )
            is False
        )

    def test_ecmp_vs_ecmp_intersecting(self):
        compiler = ConstraintCompiler()
        assert (
            compiler.diff_outcome(
                self.rule(ecmp([1, 2])), self.rule(ecmp([2, 3]))
            )
            is False
        )

    def test_ecmp_vs_ecmp_disjoint(self):
        compiler = ConstraintCompiler()
        assert (
            compiler.diff_outcome(
                self.rule(ecmp([1, 2])), self.rule(ecmp([3, 4]))
            )
            is True
        )

    def test_multicast_vs_ecmp_escaping_port(self):
        compiler = ConstraintCompiler()
        # Multicast reaches port 4 which the ECMP never uses.
        assert (
            compiler.diff_outcome(
                self.rule(multicast([1, 4])), self.rule(ecmp([1, 2]))
            )
            is True
        )

    def test_multicast_vs_ecmp_counting_exception(self):
        compiler = ConstraintCompiler()
        # Multicast set inside the ECMP set but |F1|=2 != 1: countable.
        assert (
            compiler.diff_outcome(
                self.rule(multicast([1, 2])), self.rule(ecmp([1, 2, 3]))
            )
            is True
        )

    def test_unicast_inside_ecmp_not_distinguishable_by_ports(self):
        compiler = ConstraintCompiler()
        # |F1|=1 and inside the ECMP set, no rewrites: ambiguous.
        assert (
            compiler.diff_outcome(
                self.rule(output(1)), self.rule(ecmp([1, 2]))
            )
            is False
        )


class TestDiffRewrite:
    def rule(self, actions, priority=5):
        return Rule(priority=priority, match=Match.wildcard(), actions=actions)

    def probe_satisfying(self, compiler, diff_lit):
        compiler.cnf.add_unit(diff_lit)
        result = solve(compiler.cnf)
        if not result.satisfiable:
            return None
        return compiler.decode_assignment(result.assignment)

    def test_same_port_rewrite_distinguishable_for_right_probe(self):
        compiler = ConstraintCompiler()
        lit = compiler.diff_outcome(
            self.rule(output(1, nw_tos=0x2A)), self.rule(output(1))
        )
        assert not isinstance(lit, bool)
        values = self.probe_satisfying(compiler, lit)
        # A probe with ToS != 0x2A witnesses the rewrite difference.
        assert values is not None
        assert values[FieldName.NW_TOS] != 0x2A

    def test_identical_rewrites_not_distinguishable(self):
        compiler = ConstraintCompiler()
        assert (
            compiler.diff_outcome(
                self.rule(output(1, nw_tos=5)), self.rule(output(1, nw_tos=5))
            )
            is False
        )

    def test_conflicting_constant_rewrites_always_distinguishable(self):
        compiler = ConstraintCompiler()
        assert (
            compiler.diff_outcome(
                self.rule(output(1, nw_tos=1)), self.rule(output(1, nw_tos=2))
            )
            is True
        )

    def test_probe_with_tos_equal_rewrite_is_excluded(self):
        # The strawman from §3.2: probe already carrying ToS=voice can't
        # witness rewrite(ToS<-voice) vs no-rewrite.
        compiler = ConstraintCompiler()
        lit = compiler.diff_outcome(
            self.rule(output(1, nw_tos=0x2A)), self.rule(output(1))
        )
        compiler.assert_matches(Match.build(nw_tos=0x2A))
        compiler.cnf.add_unit(lit)
        assert solve(compiler.cnf).satisfiable is False

    def test_ecmp_rewrite_needs_all_common_ports(self):
        from repro.openflow.actions import ActionList, EcmpGroup, SetField

        compiler = ConstraintCompiler()
        # ECMP rewrites ToS on port 1 only; multicast rewrites nothing.
        group = ActionList(
            (
                EcmpGroup(
                    ports=(1, 2),
                    rewrites=((1, (SetField(FieldName.NW_TOS, 7),)),),
                ),
            )
        )
        lit = compiler.diff_outcome(
            self.rule(ActionList((EcmpGroup(ports=(1, 2)),))),
            self.rule(group),
        )
        # Port 2 has identical (empty) rewrites on both: the per-port
        # conjunction contains a False -> constant False.
        assert lit is False


class TestDistinguishChain:
    def build_table_example(self, encoding):
        """The §3.1 example: probe must exist for Rprobed."""
        compiler = ConstraintCompiler(encoding=encoding)
        src, dst = 0x0A000001, 0x0A000002
        rlowest = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        rlower = Rule(
            priority=5, match=Match.build(nw_src=src), actions=output(2)
        )
        rprobed = Rule(
            priority=10,
            match=Match.build(nw_src=src, nw_dst=dst),
            actions=output(1),
        )
        compiler.assert_matches(rprobed.match)
        compiler.assert_distinguish(rprobed, [rlower, rlowest])
        return compiler

    @pytest.mark.parametrize(
        "encoding",
        [DistinguishEncoding.ASSERTED_CHAIN, DistinguishEncoding.VELEV_ITE],
    )
    def test_paper_example_satisfiable_with_both_encodings(self, encoding):
        compiler = self.build_table_example(encoding)
        values = decode(compiler, solve(compiler.cnf))
        # The only valid probes match Rlower (so the absence of Rprobed
        # diverts to port 2): nw_src is pinned by Hit already.
        assert values[FieldName.NW_SRC] == 0x0A000001

    @pytest.mark.parametrize(
        "encoding",
        [DistinguishEncoding.ASSERTED_CHAIN, DistinguishEncoding.VELEV_ITE],
    )
    def test_shadowing_same_output_unsat(self, encoding):
        compiler = ConstraintCompiler(encoding=encoding)
        rlow = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        rhigh = Rule(
            priority=10, match=Match.build(nw_src=1), actions=output(1)
        )
        compiler.assert_matches(rhigh.match)
        compiler.assert_distinguish(rhigh, [rlow])
        assert solve(compiler.cnf).satisfiable is False

    def test_encodings_agree_on_random_chains(self):
        from repro.sim.random import DeterministicRandom

        rng = DeterministicRandom(5)
        for _ in range(25):
            rules = []
            for priority in range(1, rng.randint(2, 6)):
                match_kwargs = {}
                if rng.random() < 0.8:
                    match_kwargs["nw_src"] = rng.randint(0, 3)
                if rng.random() < 0.5:
                    match_kwargs["nw_dst"] = rng.randint(0, 3)
                actions = output(
                    rng.randint(1, 3)
                ) if rng.random() < 0.8 else drop()
                rules.append(
                    Rule(
                        priority=priority,
                        match=Match.build(**match_kwargs),
                        actions=actions,
                    )
                )
            probed = Rule(
                priority=10,
                match=Match.build(nw_src=rng.randint(0, 3)),
                actions=output(rng.randint(1, 3)),
            )
            results = []
            for encoding in DistinguishEncoding:
                compiler = ConstraintCompiler(encoding=encoding)
                compiler.assert_matches(probed.match)
                compiler.assert_distinguish(probed, rules)
                results.append(solve(compiler.cnf).satisfiable)
            assert results[0] == results[1]


class TestDecodeAssignment:
    def test_unassigned_bits_default_false(self):
        compiler = ConstraintCompiler()
        values = compiler.decode_assignment({})
        assert all(v == 0 for v in values.values())

    def test_bit_order_msb_first(self):
        compiler = ConstraintCompiler()
        # Set the MSB of in_port (bit 0 of the header = var 1).
        values = compiler.decode_assignment({1: True})
        assert values[FieldName.IN_PORT] == 1 << 15
