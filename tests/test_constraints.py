"""Tests for the constraint compiler: Table 1 encodings and DiffOutcome
analysis across rule kinds (§3.1-3.4)."""

import collections
import itertools
import random

import pytest

from action_helpers import multicast
from overlap_reference import overlaps
from repro.core.constraints import ConstraintCompiler, fold_distinguish
from repro.core.probegen import ProbeGenContext, ProbeGenerator, verify_probe
from repro.openflow.actions import drop, ecmp, output
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, pack_header
from repro.sat.solver import SatSolver, solve

CATCH = Match.build(dl_vlan=0xF03)


def decode(compiler, result):
    assert result.satisfiable
    return HEADER.unpack(compiler.decode_assignment(result.model))


class TestMatchesEncoding:
    def test_assert_matches_forces_field(self):
        # A match folded into the cube never reaches the formula:
        # decoding overlays its bits on the model.
        compiler = ConstraintCompiler()
        assert compiler.fix(*Match.build(nw_src=0x0A000001).packed())
        assert compiler.cnf.num_clauses == 0
        values = decode(compiler, solve(compiler.cnf))
        assert values[FieldName.NW_SRC] == 0x0A000001

    def test_avoided_rule_keeps_only_its_residual_bits(self):
        # The cube fixes dl_vlan; the higher rule's one clause is over
        # its residual bits, nw_src's, and the model leaves them.
        compiler = ConstraintCompiler()
        probed = Rule(5, Match.build(dl_vlan=5), output(1))
        higher = Rule(9, Match.build(dl_vlan=5, nw_src=1), output(2))
        assert compiler.assert_probe(probed, [higher], [], Match())
        assert compiler.cnf.num_clauses == 1
        values = decode(compiler, solve(compiler.cnf))
        assert values[FieldName.DL_VLAN] == 5
        assert values[FieldName.NW_SRC] != 1

    def test_avoided_rule_covering_the_cube_is_unsat(self):
        compiler = ConstraintCompiler()
        probed = Rule(5, Match.build(dl_vlan=5), output(1))
        higher = Rule(9, Match.wildcard(), output(2))
        assert not compiler.assert_probe(probed, [higher], [], Match())

    def test_prefix_match_constrains_only_prefix(self):
        compiler = ConstraintCompiler()
        assert compiler.fix(*Match.build(nw_dst=(0x0A000000, 8)).packed())
        assert compiler.cube_mask.bit_count() == 8
        values = decode(compiler, solve(compiler.cnf))
        assert (values[FieldName.NW_DST] >> 24) == 0x0A

    def test_in_port_joins_the_cube(self):
        # All 16 in_port bits are fixed, like any match the cube holds:
        # nothing is encoded, and decoding reads the port back.
        compiler = ConstraintCompiler()
        probed = Rule(5, Match.build(dl_vlan=5), output(1))
        assert compiler.assert_probe(probed, [], [], Match(), in_port=3)
        assert compiler.cnf.num_clauses == 0
        values = decode(compiler, solve(compiler.cnf))
        assert values[FieldName.IN_PORT] == 3

    def test_in_port_the_match_contradicts_folds_false(self):
        # A port the probed match rules out is decided by the fold:
        # no probe, and no clause emitted to say so.
        compiler = ConstraintCompiler()
        probed = Rule(5, Match.build(in_port=7), output(1))
        assert not compiler.assert_probe(probed, [], [], Match(), in_port=3)
        assert compiler.cnf.num_clauses == 0


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
        return HEADER.unpack(compiler.decode_assignment(result.model))

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
        rewriting = self.rule(output(1, nw_tos=0x2A))
        plain = self.rule(output(1))
        compiler = ConstraintCompiler()
        compiler.cnf.add_unit(compiler.diff_outcome(rewriting, plain))
        values = decode(compiler, solve(compiler.cnf))
        assert values[FieldName.NW_TOS] != 0x2A
        # With the probe's ToS fixed to voice, the term is decided.
        compiler = ConstraintCompiler()
        assert compiler.fix(*Match.build(nw_tos=0x2A).packed())
        assert compiler.diff_outcome(rewriting, plain) is False

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


def quarter(value):
    """An ``nw_src``/``nw_dst`` match on the field's top two bits:
    every address lies in exactly one of the quarters 0..3."""
    return (value << 30, 2)


def quarter_table(seed):
    """A seeded single-switch table over the IPv4 quarters: up to five
    rules matching ``nw_src``/``nw_dst`` in 0..3, forwarding or
    dropping (no rewrites, so every DiffOutcome is a constant and the
    quarters decide everything the table does to a packet)."""
    rng = random.Random(seed)
    table = FlowTable()
    for priority in range(1, rng.randint(3, 6)):
        match = {"dl_type": 0x800}
        if rng.random() < 0.7:
            match["nw_src"] = quarter(rng.randrange(4))
        if rng.random() < 0.5:
            match["nw_dst"] = quarter(rng.randrange(4))
        actions = drop() if rng.random() < 0.3 else output(rng.randint(1, 2))
        table.install(Rule(priority, Match.build(**match), actions))
    return table


def quarter_headers(in_ports=(0,)):
    """One header per (nw_src, nw_dst) quarter pair and ``in_port``;
    every other field is fixed, to values the catching rule
    matches."""
    base = {name: 0 for name in HEADER.names()}
    base.update({FieldName.DL_TYPE: 0x800, FieldName.DL_VLAN: 0xF03})
    for src, dst in itertools.product(range(4), repeat=2):
        for in_port in in_ports:
            yield {
                **base,
                FieldName.IN_PORT: in_port,
                FieldName.NW_SRC: src << 30,
                FieldName.NW_DST: dst << 30,
            }


def chain_kind(table, rule):
    """``"true"``, ``"false"`` or ``"live"``: what the folded
    Distinguish chain of ``rule`` in ``table`` is."""
    lower = [
        r
        for r in table.overlapping(rule.match)
        if r.priority < rule.priority
    ]
    chain, else_value = fold_distinguish(
        rule, lower, ConstraintCompiler().diff_outcome
    )
    return "live" if chain else str(else_value).lower()


class TestDistinguishChain:
    def build_table_example(self):
        """The §3.1 example: probe must exist for Rprobed."""
        compiler = ConstraintCompiler()
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
        assert compiler.fix(*rprobed.match.packed())
        assert compiler.assert_distinguish(rprobed, [rlower, rlowest])
        return compiler

    def test_paper_example_satisfiable(self):
        compiler = self.build_table_example()
        values = decode(compiler, solve(compiler.cnf))
        # The only valid probes match Rlower (so the absence of Rprobed
        # diverts to port 2): nw_src is pinned by Hit already.
        assert values[FieldName.NW_SRC] == 0x0A000001

    def test_shadowing_same_output_unsat(self):
        compiler = ConstraintCompiler()
        rlow = Rule(priority=0, match=Match.wildcard(), actions=output(1))
        rhigh = Rule(
            priority=10, match=Match.build(nw_src=1), actions=output(1)
        )
        assert compiler.fix(*rhigh.match.packed())
        assert not compiler.assert_distinguish(rhigh, [rlow])
        assert solve(compiler.cnf).satisfiable is False

    def test_fold_drops_the_tail_that_repeats_the_else_value(self):
        compiler = ConstraintCompiler()
        probed = Rule(10, Match.build(nw_src=1), output(1))
        same = Rule(5, Match.build(nw_dst=2), output(1))
        other = Rule(4, Match.build(nw_dst=3), output(2))
        dropping = Rule(3, Match.wildcard(), drop())
        # Else (the table miss) is True; so is the lowest branch.
        chain, else_value = fold_distinguish(
            probed, [dropping, other, same], compiler.diff_outcome
        )
        assert chain == [(same, False)] and else_value is True
        # Every branch true: the chain is the else value alone.
        assert fold_distinguish(
            probed, [dropping, other], compiler.diff_outcome
        ) == ([], True)

    def test_constant_true_chain_emits_nothing(self):
        compiler = ConstraintCompiler()
        probed = Rule(10, Match.build(nw_src=1), output(1))
        below = Rule(5, Match.wildcard(), output(2))
        assert compiler.assert_distinguish(probed, [below])
        assert (compiler.cnf.num_vars, compiler.cnf.num_clauses) == (
            HEADER.total_bits, 0
        )

    def test_constant_false_chain_is_the_empty_clause(self):
        # A drop over a drop and the table miss: indistinguishable.
        compiler = ConstraintCompiler()
        probed = Rule(10, Match.build(nw_src=1), drop())
        below = Rule(5, Match.build(nw_dst=2), drop())
        assert not compiler.assert_distinguish(probed, [below])
        assert compiler.cnf.num_vars == HEADER.total_bits
        assert list(compiler.cnf.clauses()) == [[]]

    def test_verdicts_match_exhaustive_search(self):
        """Table 1 itself is the oracle: on seeded tables over the IPv4
        quarters a probe exists iff one of the 16 quarter headers
        passes ``verify_probe``, and the cold generator and a context
        must both say so — every ``ok`` probe they return passing
        ``verify_probe`` too."""
        kinds = collections.Counter()
        for seed in range(40):
            table = quarter_table(seed)
            cold = ProbeGenerator(catch_match=CATCH)
            context = ProbeGenContext(cold, table=table.copy())
            for rule in table.rules():
                kinds[chain_kind(table, rule)] += 1
                exists = any(
                    verify_probe(table, rule, header, CATCH)[0]
                    for header in quarter_headers()
                )
                for result in (
                    cold.generate(table, rule),
                    context.probe_for(rule),
                ):
                    assert result.ok == exists, (seed, rule, result)
                    if result.ok:
                        valid, why = verify_probe(
                            table, rule, result.header, CATCH
                        )
                        assert valid, why
        assert min(kinds[kind] for kind in ("true", "false", "live")) >= 10

    def test_engines_agree_on_campus(self):
        """On the Campus-like table, whose overlap chains are deep, the
        cold generator and a context reach the same verdict per rule,
        every probe found passes ``verify_probe``, and the sample holds
        constant-true, constant-false and live chains."""
        from repro.datasets import campus_table

        table = campus_table()
        rules = random.Random(3).sample(
            [rule for rule in table.rules() if rule.priority > 0], 30
        )
        cold = ProbeGenerator(catch_match=CATCH)
        context = ProbeGenContext(cold, table=table.copy())
        for rule in rules:
            result = cold.generate(table, rule)
            again = context.probe_for(rule)
            assert (again.ok, again.reason) == (result.ok, result.reason)
            for probe in (result, again):
                if probe.ok:
                    valid, why = verify_probe(
                        table, rule, probe.header, CATCH
                    )
                    assert valid, why
        kinds = {chain_kind(table, rule) for rule in rules}
        assert kinds == {"true", "false", "live"}


#: The in_port domain of the ``ports_*`` fold cases: 4..7 share every
#: bit but the two lowest, which ``PORTS_PREFIX`` leaves open.
PORTS = (4, 5, 6, 7)
PORTS_PREFIX = (4, 14)


def fold_case_table(case, seed):
    """``(table, probed rule)``: a seeded quarter table (priorities
    1..5) with a probed rule at priority 8 and the rule that makes
    ``case`` of the cube fold happen next to it.  A ``ports_*`` case's
    rule matches nothing but an ``in_port`` prefix covering
    ``PORTS``."""
    rng = random.Random(seed)
    table = quarter_table(seed)
    src, dst = rng.randrange(4), rng.randrange(4)
    port = rng.randint(1, 2)
    hit = {"dl_type": 0x800, "nw_src": quarter(src), "nw_dst": quarter(dst)}
    if case == "cube_conflict":
        # Hit fixes dl_vlan to a value Collect's does not allow.
        hit["dl_vlan"] = 5
    probed = Rule(8, Match.build(**hit), output(port))
    table.install(probed)
    src_only = {"dl_type": 0x800, "nw_src": quarter(src)}
    if case == "higher_covers":
        table.install(Rule(9, Match.build(**src_only), output(3 - port)))
    elif case == "lower_covers_equal":
        table.install(Rule(7, Match.build(**src_only), output(port)))
    elif case == "lower_covers_different":
        table.install(Rule(7, Match.build(**src_only), output(3 - port)))
    elif case == "catch_disjoint":
        # Covers the probed rule but for dl_vlan, where only the
        # catching match sets the probe apart from it.
        table.install(Rule(9, Match.build(dl_vlan=5, **src_only), drop()))
    ports_only = Match.build(in_port=PORTS_PREFIX)
    if case == "ports_higher_covers":
        table.install(Rule(9, ports_only, output(3 - port)))
    elif case == "ports_lower_covers_equal":
        table.install(Rule(7, ports_only, output(port)))
    elif case == "ports_lower_covers_different":
        table.install(Rule(7, ports_only, output(3 - port)))
    return table, probed


class TestCubeFold:
    """Hit ∧ Collect folded into one cube before anything is encoded,
    held to Table 1 by exhaustive search over the 16 quarter headers
    (as ``test_verdicts_match_exhaustive_search``), once per fold
    case on seeded tables.  The ``ports_*`` cases generate under the
    in_port domain ``PORTS``, one port at a time, each joining the
    cube, and search the quarter headers once per allowed port."""

    @pytest.mark.parametrize(
        "case, verdict, solved",
        [
            ("cube_conflict", False, False),
            ("higher_covers", False, False),
            ("lower_covers_equal", False, False),
            ("lower_covers_different", True, True),
            ("catch_disjoint", None, None),
            ("ports_higher_covers", False, False),
            ("ports_lower_covers_equal", False, False),
            ("ports_lower_covers_different", True, True),
        ],
    )
    def test_verdicts_match_exhaustive_search(
        self, monkeypatch, case, verdict, solved
    ):
        solves = []
        original = SatSolver.solve

        def counted(self, *args, **kwargs):
            solves.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SatSolver, "solve", counted)
        ports = PORTS if case.startswith("ports_") else None
        found = set()
        for seed in range(12):
            table, probed = fold_case_table(case, seed)
            exists = any(
                verify_probe(table, probed, header, CATCH)[0]
                for header in quarter_headers(ports or (0,))
            )
            cold = ProbeGenerator(catch_match=CATCH, valid_in_ports=ports)
            context = ProbeGenContext(cold, table=table.copy())
            del solves[:]
            result = cold.generate(table, probed)
            cold_solved = bool(solves)
            for got in (result, context.probe_for(probed)):
                assert got.ok == exists, (seed, got)
                if got.ok:
                    valid, why = verify_probe(table, probed, got.header, CATCH)
                    assert valid, why
                    if ports:
                        assert got.header[FieldName.IN_PORT] in ports
            found.add(exists)
            if verdict is not None:
                assert exists is verdict, seed
                assert cold_solved is solved, seed
            if case == "lower_covers_different":
                # The covering rule ends the chain as its else value:
                # the rules below it are never encoded, and the ones
                # above it contradict or are implied by the cube.
                assert result.cnf_clauses == 0, seed
            if case == "ports_lower_covers_different":
                # Likewise: the port in the cube implies the covering
                # rule, so no domain is left to encode.
                (cover,) = [r for r in table.rules() if r.priority == 7]
                alone = FlowTable()
                alone.install(probed)
                alone.install(cover)
                bare = cold.generate(alone, probed)
                assert result.cnf_clauses == bare.cnf_clauses == 0, seed
            if case == "catch_disjoint":
                # The rule covering all but the catch bits overlaps
                # the probed rule, so it is a candidate; the cube
                # leaves it out, and the lower rules decide.
                (higher,) = [r for r in table.rules() if r.priority == 9]
                assert overlaps(higher.match, probed.match)
                assert result.overlapping_rules > 0
        if verdict is None:
            assert found == {True, False}


class TestInPortChoice:
    """The generator tries the allowed ports in ascending order and
    keeps the first that admits a probe.  Held to an exhaustive
    oracle: the probe's ``in_port`` is the smallest allowed port for
    which some quarter header passes ``verify_probe``, whatever order
    ``valid_in_ports`` lists the domain in.  That is also the port a
    single false-first solve over the whole domain would pick, since
    ``in_port`` is the first header field."""

    DOMAINS = [PORTS, (7, 4, 6, 5), (6, 4), (5,), (7, 5, 5, 4), (9, 6, 4)]

    @pytest.mark.parametrize(
        "case",
        ["ports_higher_covers", "ports_lower_covers_equal",
         "ports_lower_covers_different"],
    )
    def test_probe_enters_on_the_smallest_port_that_admits_one(
        self, case
    ):
        skipped = 0
        for seed in range(12):
            table, probed = fold_case_table(case, seed)
            # Rules on one in_port each, above and below the probed
            # rule, so the first ports of a domain may admit no probe.
            rng = random.Random(seed)
            for _ in range(rng.randint(1, 3)):
                match = {"dl_type": 0x800, "in_port": rng.choice((4, 5, 9))}
                if rng.random() < 0.5:
                    match["nw_src"] = quarter(rng.randrange(4))
                actions = output(rng.randint(1, 2))
                table.install(
                    Rule(rng.choice((6, 9)), Match.build(**match), actions)
                )
            for ports in self.DOMAINS:
                admits = [
                    port for port in sorted(ports)
                    if any(
                        verify_probe(table, probed, header, CATCH)[0]
                        for header in quarter_headers((port,))
                    )
                ]
                cold = ProbeGenerator(catch_match=CATCH, valid_in_ports=ports)
                context = ProbeGenContext(cold, table=table.copy())
                for got in (
                    cold.generate(table, probed),
                    context.probe_for(probed),
                ):
                    assert got.ok == bool(admits), (seed, ports, got)
                    if got.ok:
                        assert got.header[FieldName.IN_PORT] == admits[0]
                        valid, why = verify_probe(
                            table, probed, got.header, CATCH
                        )
                        assert valid, why
                # Did the probe have to go past a port admitting none?
                skipped += bool(admits) and admits[0] != min(ports)
        assert skipped >= 5


class TestDecodeAssignment:
    def test_unassigned_bits_default_false(self):
        compiler = ConstraintCompiler()
        assert compiler.decode_assignment(frozenset()) == 0
        assert HEADER.unpack(0) == {name: 0 for name in HEADER.names()}

    def test_bit_order_msb_first(self):
        compiler = ConstraintCompiler()
        # Set the MSB of in_port (bit 0 of the header = var 1).
        packed = compiler.decode_assignment(frozenset({1}))
        assert packed == 1 << (HEADER.total_bits - 1)
        assert HEADER.unpack(packed)[FieldName.IN_PORT] == 1 << 15

    def test_model_above_the_header_is_ignored_and_the_cube_wins(self):
        compiler = ConstraintCompiler()
        top = HEADER.total_bits
        # The last header bit is packed bit 0; Tseitin variables above
        # the header are no part of the probe.
        assert compiler.decode_assignment(frozenset({top, top + 1, 400})) == 1
        # A bit the cube fixes reads the cube's value, not the model's.
        assert compiler.fix(*Match.build(in_port=5).packed())
        packed = compiler.decode_assignment(frozenset({1, top}))
        assert HEADER.unpack(packed)[FieldName.IN_PORT] == 5
        expected = {FieldName.IN_PORT: 5, FieldName.TP_DST: 1}
        assert packed == pack_header(expected)
