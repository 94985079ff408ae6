"""Tests for the persistent SAT context (repro.sat.incremental).

Covers the three incremental facilities — assumption-based solving,
clause groups with retraction, lemma/heuristic retention across calls —
plus variable recycling and database compaction, cross-checked against
the brute-force reference solver on random formulas.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_compaction_preserves_semantics(self):
        rng = random.Random(11)
        base = random_cnf(rng, 6, 10)
        solver = IncrementalSolver(num_vars=6)
        for clause in base.clauses():
            solver.add_clause(clause)
        live = solver.new_group()
        solver.add_clause([1, 2], group=live)
        for _ in range(5):
            dead = solver.new_group()
            solver.add_clause([3, 4], group=dead)
            solver.retire_group(dead)
        before = solver.solve([live]).satisfiable
        solver.compact()
        assert solver.health()["dead_clauses"] == 0
        assert solver.solve([live]).satisfiable == before
        reference = base.copy()
        reference.add_clause([1, 2])
        assert before == (brute_force_solve(reference) is not None)

    def test_auto_compaction_fires(self):
        solver = IncrementalSolver(
            num_vars=2, compaction_floor=10, compaction_ratio=0.5
        )
        solver.add_clause([1, 2])
        for _ in range(20):
            group = solver.new_group()
            solver.add_clause([1], group=group)
            solver.retire_group(group)
        assert solver.stats.compactions >= 1
        assert solver.solve([]).satisfiable is True


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

    def test_compaction_keeps_model_check_disabled(self):
        solver = IncrementalSolver(num_vars=2)
        solver.add_clause([1, 2])
        assert solver._solver.check_models is False
        solver.compact()
        assert solver._solver.check_models is False

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
        solver.compact()  # rebuilds from the stores: nothing malformed
        assert solver.solve([group]).satisfiable is True

    def test_assumption_on_an_unseen_variable_grows_the_space(self):
        solver = IncrementalSolver(num_vars=2)
        solver.add_clause([1, 2])
        result = solver.solve([5])
        assert result.satisfiable is True and result.assignment[5] is True
        assert sorted(result.assignment) == [1, 2, 3, 4, 5]
        # The wrapper sees the growth: fresh variables start above it.
        assert solver.num_vars == 5 and solver.new_var() == 6


def random_3sat(rng, num_vars, num_clauses):
    """Exact-3 clauses near the phase transition: conflict-rich."""
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


class TestWarmCompaction:
    """Compaction keeps lemmas that mention no retired selector."""

    def _churned_solver(self, rng, num_vars=20, clauses=86):
        threes = random_3sat(rng, num_vars, clauses)
        solver = IncrementalSolver(num_vars=num_vars)
        for clause in threes:
            solver.add_clause(clause)
        return threes, solver

    def test_lemmas_survive_compaction(self):
        rng = random.Random(3)
        cnf, solver = self._churned_solver(rng)
        first = solver.solve([])
        assert first.learned_clauses > 0  # the instance must be nontrivial
        # Create retirement garbage to give compaction something to do.
        for _ in range(5):
            group = solver.new_group()
            solver.add_clause([1, 2], group=group)
            solver.retire_group(group)
        solver.compact()
        assert solver.stats.lemmas_retained > 0
        assert solver.solve([]).satisfiable == first.satisfiable

    def test_retired_group_lemmas_are_dropped(self):
        solver = IncrementalSolver(num_vars=6)
        solver.add_clause([1, 2])
        group = solver.new_group()
        # A contradictory group: solving under it learns lemmas that
        # carry the group selector.
        solver.add_clause([3], group=group)
        solver.add_clause([-3, 4], group=group)
        solver.add_clause([-4], group=group)
        assert solver.solve([group]).satisfiable is False
        solver.retire_group(group)
        solver.compact()
        # No kept lemma may mention the retired selector.
        for lemma in solver._kept_lemmas:
            assert all(abs(lit) != group for lit in lemma)
        assert solver.solve([]).satisfiable is True

    def test_warmth_measurably_retained(self):
        # After compaction the solver must not redo all its conflicts.
        rng = random.Random(8)
        measured = 0
        for _ in range(8):
            _cnf, solver = self._churned_solver(rng)
            first = solver.solve([])
            if first.conflicts < 4:
                continue  # too easy to measure warmth on
            solver.compact()
            assert solver.stats.lemmas_retained > 0
            second = solver.solve([])
            assert second.satisfiable == first.satisfiable
            assert second.conflicts <= first.conflicts
            measured += 1
        assert measured > 0

    def test_compaction_matches_brute_force_after_retention(self):
        rng = random.Random(53)
        for trial in range(15):
            base = random_cnf(rng, 7, rng.randint(6, 20))
            solver = IncrementalSolver(num_vars=7)
            for clause in base.clauses():
                solver.add_clause(clause)
            solver.solve([])
            for _ in range(3):
                group = solver.new_group()
                extra = random_cnf(rng, 7, rng.randint(1, 4))
                for clause in extra.clauses():
                    solver.add_clause(clause, group=group)
                solver.solve([group])
                solver.retire_group(group)
            solver.compact()
            expected = brute_force_solve(base) is not None
            assert solver.solve([]).satisfiable == expected, trial


BASE_VARS = 6


@st.composite
def group_scripts(draw):
    """Operations on a context over ``BASE_VARS`` base variables, of
    which clauses name only a drawn subset: permanent clauses, groups
    (with an auxiliary variable each), retirements, compactions, and
    solves under a mix of selectors and base literals."""
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
        st.tuples(st.just("compact"), st.none()),
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
        solver = IncrementalSolver(num_vars=BASE_VARS)
        twin = IncrementalSolver(num_vars=BASE_VARS)
        both = (solver, twin)
        permanent: list[list[int]] = []
        groups: list[tuple[int, int, list[list[int]]]] = []
        touched: set[int] = set()
        for op, arg in script:
            if op == "permanent":
                for each in both:
                    each.add_clause(arg)
                permanent.append(arg)
                touched.update(map(abs, arg))
            elif op == "group":
                (selector,) = {each.new_group() for each in both}
                (aux,) = {each.new_var(selector) for each in both}
                # aux <-> first clause, then the rest as they are: a
                # recycled auxiliary is named again by a new group.
                for each in both:
                    each.add_clause([-aux] + arg[0], group=selector)
                    each.add_unit(aux, group=selector)
                    for clause in arg[1:]:
                        each.add_clause(clause, group=selector)
                groups.append((selector, aux, arg))
                touched.update(abs(lit) for c in arg for lit in c)
            elif op == "retire" and groups:
                retired = groups.pop(arg % len(groups))[0]
                for each in both:
                    each.retire_group(retired)
            elif op == "compact":
                for each in both:
                    each.compact()
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
