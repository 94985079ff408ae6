"""Tests for the persistent SAT context (repro.sat.incremental).

Covers the three incremental facilities — assumption-based solving,
clause groups with retraction, lemma/heuristic retention across calls —
plus variable recycling and the probe engine's re-founding of a solver
whose retired groups outnumber its live clauses, cross-checked against
the brute-force reference solver on random formulas.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import probegen
from repro.openflow.actions import drop, output
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.sat.cnf import CNF
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import SatSolver
from sat_reference import brute_force_solve, evaluate, unqueued_candidates


def random_cnf(rng, num_vars, num_clauses, width=3):
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), size)
        cnf.add_clause(
            [v if rng.random() < 0.5 else -v for v in variables]
        )
    return cnf


class TestAssumptions:
    def test_assumptions_do_not_stick(self):
        solver = IncrementalSolver(num_vars=2)
        solver.add_clause([1, 2])
        assert solver.solve([-1]).satisfiable is True
        assert solver.solve([-2]).satisfiable is True
        # Jointly impossible, but neither call poisoned the other.
        assert solver.solve([-1, -2]).satisfiable is False
        assert solver.solve([]).satisfiable is True

    def test_unsat_under_assumptions_is_not_permanent(self):
        solver = IncrementalSolver(num_vars=3)
        solver.add_clause([1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve([-1, -3]).satisfiable is False
        result = solver.solve([])
        assert result.satisfiable is True

    def test_conflicting_assumptions(self):
        solver = IncrementalSolver(num_vars=1)
        assert solver.solve([1, -1]).satisfiable is False
        assert solver.solve([1]).satisfiable is True

    def test_model_respects_assumptions(self):
        solver = IncrementalSolver(num_vars=4)
        solver.add_clause([1, 2, 3, 4])
        result = solver.solve([-1, -2, -3])
        assert result.satisfiable is True
        assert result.assignment[4] is True
        assert result.assignment[1] is False

    def test_matches_brute_force_under_random_assumptions(self):
        rng = random.Random(20150)
        for trial in range(40):
            num_vars = rng.randint(3, 8)
            cnf = random_cnf(rng, num_vars, rng.randint(2, 18))
            solver = IncrementalSolver(num_vars=num_vars)
            for clause in cnf.clauses():
                solver.add_clause(clause)
            for _ in range(4):
                k = rng.randint(0, num_vars)
                assumed = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), k)
                ]
                augmented = cnf.copy()
                for lit in assumed:
                    augmented.add_unit(lit)
                expected = brute_force_solve(augmented) is not None
                got = solver.solve(assumed).satisfiable
                assert got == expected, (trial, assumed)


class TestGroups:
    def test_group_binds_only_when_assumed(self):
        solver = IncrementalSolver(num_vars=1)
        group = solver.new_group()
        solver.add_clause([-1], group=group)  # x must be false, in-group
        assert solver.solve([1]).satisfiable is True  # group inactive
        assert solver.solve([group, 1]).satisfiable is False
        assert solver.solve([group, -1]).satisfiable is True

    def test_retired_group_never_binds_again(self):
        solver = IncrementalSolver(num_vars=1)
        group = solver.new_group()
        solver.add_clause([-1], group=group)
        solver.retire_group(group)
        # Even assuming the dead selector cannot resurrect the clause:
        # its unit -selector contradicts the assumption, nothing more.
        assert solver.solve([1]).satisfiable is True
        assert solver.solve([group]).satisfiable is False  # selector pinned

    def test_add_to_retired_group_rejected(self):
        solver = IncrementalSolver()
        group = solver.new_group()
        solver.retire_group(group)
        with pytest.raises(ValueError):
            solver.add_clause([1], group=group)
        solver.retire_group(group)  # idempotent

    def test_lemmas_from_retired_groups_do_not_leak(self):
        # A sequence of contradictory transient groups must not corrupt
        # the base formula: after each retirement the base stays SAT.
        solver = IncrementalSolver(num_vars=3)
        solver.add_clause([1, 2])
        for _ in range(10):
            group = solver.new_group()
            solver.add_clause([-1], group=group)
            solver.add_clause([-2], group=group)
            solver.add_clause([3], group=group)
            solver.add_clause([-3], group=group)  # group is self-contradictory
            assert solver.solve([group]).satisfiable is False
            solver.retire_group(group)
            assert solver.solve([]).satisfiable is True

    def test_random_group_churn_matches_brute_force(self):
        rng = random.Random(77)
        base_vars = 6
        base = random_cnf(rng, base_vars, 6)
        solver = IncrementalSolver(num_vars=base_vars)
        for clause in base.clauses():
            solver.add_clause(clause)
        for trial in range(30):
            extra = random_cnf(rng, base_vars, rng.randint(1, 6))
            group = solver.new_group()
            for clause in extra.clauses():
                solver.add_clause(clause, group=group)
            combined = base.copy()
            combined.extend(extra.clauses())
            expected = brute_force_solve(combined) is not None
            assert solver.solve([group]).satisfiable == expected, trial
            solver.retire_group(group)
            assert (
                solver.solve([]).satisfiable
                == (brute_force_solve(base) is not None)
            )


CATCH = Match.build(dl_vlan=0xF03)


def chained_context(monkeypatch):
    """A probe engine whose probes open and retire Distinguish chains,
    re-founded once ten dead clauses (not 2,000) outnumber live ones.
    The default rule forwards as the /8 does: that branch keeps the
    /8's chain live through the fold."""
    monkeypatch.setattr(probegen, "DEAD_CLAUSE_FLOOR", 10)
    context = probegen.ProbeGenContext(
        probegen.ProbeGenerator(catch_match=CATCH)
    )
    rules = [
        Rule(100, Match.build(nw_dst=(0x0A000000, 8)), output(2)),
        Rule(80, Match.build(nw_dst=(0x0A000000, 16)), output(3)),
        Rule(50, Match.build(nw_dst=0x0A000005), drop()),
        Rule(10, Match.build(), output(2)),
    ]
    for rule in rules:
        context.add_rule(rule)
    return context, rules


class TestRecyclingAndCompaction:
    def test_group_vars_are_recycled(self):
        solver = IncrementalSolver(num_vars=2)
        group = solver.new_group()
        aux = solver.new_var(group)
        solver.add_clause([1, aux], group=group)
        before = solver.num_vars
        solver.retire_group(group)
        group2 = solver.new_group()  # selector: always fresh
        reused = solver.new_var(group2)
        assert reused == aux
        assert solver.num_vars == before + 1  # only the new selector

    def test_recycled_var_is_unconstrained(self):
        solver = IncrementalSolver(num_vars=1)
        group = solver.new_group()
        aux = solver.new_var(group)
        solver.add_clause([aux], group=group)
        solver.add_clause([-1], group=group)
        assert solver.solve([group, 1]).satisfiable is False
        solver.retire_group(group)
        # aux comes back and must be assignable either way.
        fresh = solver.new_var()
        assert fresh == aux
        assert solver.solve([fresh]).satisfiable is True
        assert solver.solve([-fresh]).satisfiable is True

    def test_auto_compaction_fires(self, monkeypatch):
        """Retired groups' dead clauses are bounded by the engine that
        owns the solver: the probe engine re-founds it at the trigger
        compaction had — at least ``DEAD_CLAUSE_FLOOR`` dead clauses and
        no fewer than live ones — right after the solve that reached it.
        """
        context, rules = chained_context(monkeypatch)
        rebuilds = 0
        for _ in range(200):
            solver = context.solver
            context._cache.clear()  # every probe_for is a solve
            assert context.probe_for(rules[0]).ok
            dead = solver.dead_clauses
            due = dead >= 10 and dead >= solver.num_clauses
            assert (context.solver is not solver) is due
            rebuilds += due
        assert rebuilds >= 2
        assert context.stats.engine_rebuilds == rebuilds

    def test_compaction_preserves_semantics(self, monkeypatch):
        # Every rule's probe, across several engine rebuilds, gets the
        # from-scratch verdict and passes the simulation check.
        context, rules = chained_context(monkeypatch)
        scratch = probegen.ProbeGenerator(catch_match=CATCH)
        for _ in range(40):
            context._cache.clear()
            for rule in rules:
                result = context.probe_for(rule)
                expected = scratch.generate(context.table, rule)
                assert (result.ok, result.reason) == (
                    expected.ok, expected.reason
                )
                if result.ok:
                    valid, why = probegen.verify_probe(
                        context.table, rule, result.header, CATCH
                    )
                    assert valid, why
        assert context.stats.engine_rebuilds >= 2


class TestLearnedRetention:
    def test_repeated_solves_get_cheaper(self):
        # Pigeonhole-ish hard-ish instance solved twice: the second call
        # must not redo the first call's conflicts from scratch.
        rng = random.Random(5)
        cnf = random_cnf(rng, 12, 50)
        solver = IncrementalSolver(num_vars=12)
        for clause in cnf.clauses():
            solver.add_clause(clause)
        first = solver.solve([])
        second = solver.solve([])
        assert second.satisfiable == first.satisfiable
        assert second.conflicts <= first.conflicts

    def test_incremental_solver_is_reusable_after_sat(self):
        solver = IncrementalSolver(num_vars=3)
        solver.add_clause([1, 2])
        assert solver.solve([3]).satisfiable is True
        solver.add_clause([-3])  # new permanent knowledge
        assert solver.solve([3]).satisfiable is False
        assert solver.solve([]).satisfiable is True


class TestCoreSolverIncrementalSurface:
    def test_clause_falsified_by_previous_level0_trail(self):
        """Regression: a clause added after a solve call, all of whose
        literals are already false on the permanent level-0 trail, must
        make the formula UNSAT — not be silently ignored because its
        watches never fire."""
        solver = IncrementalSolver(num_vars=2)
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve([]).satisfiable is True  # pins -1, -2 at level 0
        solver.add_clause([1, 2])
        assert solver.solve([]).satisfiable is False

    def test_clause_reduced_to_unit_by_level0_trail(self):
        solver = IncrementalSolver(num_vars=3)
        solver.add_clause([-1])
        assert solver.solve([]).satisfiable is True
        solver.add_clause([1, 3])  # reduces to unit [3]
        result = solver.solve([])
        assert result.satisfiable is True
        assert result.assignment[3] is True
        assert solver.solve([-3]).satisfiable is False

    def test_clause_satisfied_by_level0_trail_is_redundant(self):
        solver = IncrementalSolver(num_vars=2)
        solver.add_clause([1])
        assert solver.solve([]).satisfiable is True
        solver.add_clause([1, 2])  # already satisfied forever
        result = solver.solve([-2])
        assert result.satisfiable is True

    def test_compaction_keeps_model_check_disabled(self, monkeypatch):
        # The engine's re-founded solver skips the model check too: the
        # engine verifies every probe it decodes itself.
        assert IncrementalSolver()._solver.check_models is False
        context, rules = chained_context(monkeypatch)
        for _ in range(200):
            context._cache.clear()
            assert context.probe_for(rules[0]).ok
        assert context.stats.engine_rebuilds
        assert context.solver._solver.check_models is False

    def test_add_clause_after_solve(self):
        solver = SatSolver(CNF(2))
        solver.add_clause([1, 2])
        assert solver.solve().satisfiable is True
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve().satisfiable is False

    def test_permanent_contradiction_sticks(self):
        solver = SatSolver(CNF(1))
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().satisfiable is False
        assert solver.solve().satisfiable is False

    def test_literal_zero_reaches_neither_store(self):
        solver = IncrementalSolver(num_vars=2)
        group = solver.new_group()
        for target in (None, group):
            with pytest.raises(ValueError, match="0 is not a valid literal"):
                solver.add_clause([1, 0, 2], group=target)
        assert solver.num_clauses == 0 and solver._solver.clauses == []
        assert solver.solve([group]).satisfiable is True

    def test_assumption_on_an_unseen_variable_grows_the_space(self):
        solver = IncrementalSolver(num_vars=2)
        solver.add_clause([1, 2])
        result = solver.solve([5])
        assert result.satisfiable is True and result.assignment[5] is True
        assert sorted(result.assignment) == [1, 2, 3, 4, 5]
        # The wrapper sees the growth: fresh variables start above it.
        assert solver.num_vars == 5 and solver.new_var() == 6


BASE_VARS = 6


@st.composite
def group_scripts(draw):
    """Operations on a context over ``BASE_VARS`` base variables, of
    which clauses name only a drawn subset: permanent clauses, groups
    (with an auxiliary variable each), retirements, engine rebuilds,
    and solves under a mix of selectors and base literals."""
    named = sorted(
        draw(st.sets(st.integers(1, BASE_VARS), min_size=1, max_size=4))
    )
    def signed(variables):
        return st.builds(
            lambda var, sign: var * sign, variables, st.sampled_from((1, -1))
        )

    literal = signed(st.sampled_from(named))
    any_literal = signed(st.integers(1, BASE_VARS))
    clause = st.lists(literal, min_size=1, max_size=3)
    operation = st.one_of(
        st.tuples(st.just("permanent"), clause),
        st.tuples(st.just("group"), st.lists(clause, min_size=1, max_size=4)),
        st.tuples(st.just("retire"), st.integers(0, 7)),
        st.tuples(st.just("rebuild"), st.none()),
        st.tuples(
            st.just("solve"),
            st.tuples(
                st.lists(st.integers(0, 7), max_size=3),
                st.lists(any_literal, max_size=2),
            ),
        ),
    )
    return draw(st.lists(operation, min_size=1, max_size=14))


class TestBranchBookkeeping:
    def test_solver_rests_at_level_zero(self):
        solver = SatSolver(CNF(4))
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        solver.add_clause([-3])
        for _ in range(3):
            result = solver.solve()
            assert result.satisfiable is True
            # Post-solve the trail holds only level-0 facts.
            assert len(solver.trail_lim) == 0
            assert [abs(lit) for lit in solver.trail] == [3, 1, 2]
            assert all(solver.levels[abs(lit)] == 0 for lit in solver.trail)

    @settings(max_examples=200, deadline=None)
    @given(group_scripts())
    def test_group_scripts_agree_with_enumeration(self, script):
        # Two solvers fed the same calls in lockstep: same models.
        both = (
            IncrementalSolver(num_vars=BASE_VARS),
            IncrementalSolver(num_vars=BASE_VARS),
        )
        permanent: list[list[int]] = []
        groups: list[tuple[int, int, list[list[int]]]] = []
        touched: set[int] = set()

        def add_group(clauses):
            (selector,) = {each.new_group() for each in both}
            (aux,) = {each.new_var(selector) for each in both}
            # aux <-> first clause, then the rest as they are: a
            # recycled auxiliary is named again by a new group.
            for each in both:
                each.add_clause([-aux] + clauses[0], group=selector)
                each.add_unit(aux, group=selector)
                for clause in clauses[1:]:
                    each.add_clause(clause, group=selector)
            return selector, aux, clauses

        for op, arg in script:
            solver, twin = both
            if op == "permanent":
                for each in both:
                    each.add_clause(arg)
                permanent.append(arg)
                touched.update(map(abs, arg))
            elif op == "group":
                groups.append(add_group(arg))
                touched.update(abs(lit) for c in arg for lit in c)
            elif op == "retire" and groups:
                retired = groups.pop(arg % len(groups))[0]
                for each in both:
                    each.retire_group(retired)
            elif op == "rebuild":
                # The probe engine's growth bound: fresh solvers fed the
                # live formula alone, dead clauses left behind.
                live = solver.num_clauses
                both = (
                    IncrementalSolver(num_vars=BASE_VARS),
                    IncrementalSolver(num_vars=BASE_VARS),
                )
                for clause in permanent:
                    for each in both:
                        each.add_clause(clause)
                groups = [add_group(clauses) for _, _, clauses in groups]
                solver, twin = both
                assert solver.num_clauses == live
                assert solver.dead_clauses == 0
            elif op == "solve":
                picks, literals = arg
                active = (
                    {groups[i % len(groups)][0] for i in picks}
                    if groups
                    else set()
                )
                reference = CNF(BASE_VARS)
                reference.extend(permanent)
                for selector, _aux, clauses in groups:
                    if selector in active:
                        reference.extend(clauses)
                reference.extend([lit] for lit in literals)
                touched.update(map(abs, literals))
                assert solver.num_clauses == len(permanent) + sum(
                    len(clauses) + 1 for _, _, clauses in groups
                )
                expected = brute_force_solve(reference) is not None
                result = solver.solve(sorted(active) + literals)
                assert result.satisfiable == expected
                again = twin.solve(sorted(active) + literals)
                assert again.satisfiable == result.satisfiable
                assert again.assignment == result.assignment
                core = solver._solver
                assert not core.trail_lim
                assert not unqueued_candidates(core)
                if not result.satisfiable:
                    continue
                model = result.assignment
                assert sorted(model) == list(range(1, solver.num_vars + 1))
                assert evaluate(reference, model)
                assert len(core._heap) <= core.num_vars
                stored = {abs(lit) for c in core.clauses for lit in c}
                if not result.conflicts:
                    assert result.decisions <= len(stored)
                for var in range(1, BASE_VARS + 1):
                    if var not in touched:
                        assert model[var] is False
