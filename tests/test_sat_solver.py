"""Tests for the CDCL SAT solver against hand-built and random formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver, _luby, solve
from repro.sim.random import DeterministicRandom
from sat_reference import (
    brute_force_solve,
    evaluate,
    to_dimacs,
    unqueued_candidates,
)


def make_cnf(num_vars, clauses):
    cnf = CNF(num_vars)
    cnf.extend(clauses)
    return cnf


class TestBasics:
    def test_empty_formula_sat(self):
        assert solve(CNF()).satisfiable is True

    def test_single_unit(self):
        cnf = make_cnf(1, [[1]])
        result = solve(cnf)
        assert result.satisfiable
        assert result.assignment[1] is True

    def test_contradictory_units(self):
        assert solve(make_cnf(1, [[1], [-1]])).satisfiable is False

    def test_empty_clause_unsat(self):
        cnf = CNF(2)
        cnf.add_clause([])
        assert solve(cnf).satisfiable is False

    def test_implication_chain(self):
        # x1 & (x1->x2) & (x2->x3) ... forces all true.
        n = 30
        clauses = [[1]] + [[-i, i + 1] for i in range(1, n)]
        result = solve(make_cnf(n, clauses))
        assert result.satisfiable
        assert all(result.assignment[i] for i in range(1, n + 1))

    def test_model_satisfies_formula(self):
        cnf = make_cnf(4, [[1, 2], [-1, 3], [-2, -3], [3, 4], [-4, 1]])
        result = solve(cnf)
        assert result.satisfiable
        assert evaluate(cnf, result.assignment)

    def test_pigeonhole_3_into_2_unsat(self):
        # Vars p_{i,j}: pigeon i in hole j; i in 0..2, j in 0..1.
        def var(i, j):
            return i * 2 + j + 1

        clauses = [[var(i, 0), var(i, 1)] for i in range(3)]
        for j in range(2):
            for a in range(3):
                for b in range(a + 1, 3):
                    clauses.append([-var(a, j), -var(b, j)])
        assert solve(make_cnf(6, clauses)).satisfiable is False

    def test_duplicate_literals_tolerated(self):
        cnf = make_cnf(2, [[1, 1, 2], [-1, -1]])
        result = solve(cnf)
        assert result.satisfiable
        assert result.assignment[1] is False

    def test_tautological_clause_ignored(self):
        cnf = make_cnf(2, [[1, -1], [2]])
        result = solve(cnf)
        assert result.satisfiable
        assert result.assignment[2] is True


class TestAgainstBruteForce:
    def random_cnf(self, rng, num_vars, num_clauses, width=3):
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, width)
            clause = []
            for _ in range(size):
                var = rng.randint(1, num_vars)
                clause.append(var if rng.random() < 0.5 else -var)
            clauses.append(clause)
        return make_cnf(num_vars, clauses)

    def test_random_formulas_agree_with_enumeration(self):
        rng = DeterministicRandom(99)
        for trial in range(120):
            num_vars = rng.randint(3, 10)
            num_clauses = rng.randint(2, 4 * num_vars)
            cnf = self.random_cnf(rng, num_vars, num_clauses)
            expected = brute_force_solve(cnf) is not None
            result = solve(cnf)
            assert result.satisfiable == expected, to_dimacs(cnf)
            if result.satisfiable:
                assert evaluate(cnf, result.assignment)


@st.composite
def sparse_steps(draw):
    """``(num_vars, steps)``: a formula grown in steps of clauses, each
    prefix solved by a fresh solver.  Clauses of two or more literals
    draw from a subset of the variables only, so the others are named
    by units at most."""
    num_vars = draw(st.integers(1, 9))
    everything = st.integers(1, num_vars)
    named = draw(st.sets(everything, min_size=1))
    sign = st.sampled_from((1, -1))

    def literals(variables):
        return st.builds(lambda var, s: var * s, variables, sign)

    stored = st.lists(
        literals(st.sampled_from(sorted(named))), min_size=2, max_size=4
    )
    unit = st.lists(literals(everything), min_size=1, max_size=1)
    step = st.lists(st.one_of(stored, stored, stored, unit), max_size=12)
    steps = draw(st.lists(step, min_size=1, max_size=3))
    return num_vars, steps


def solver_for(num_vars, clauses):
    solver = SatSolver(CNF(num_vars))
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestUnmentionedVariables:
    """The heap holds what stored clauses name; everything else keeps
    its saved phase and costs no decision."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_steps())
    def test_steps_agree_with_enumeration(self, drawn):
        num_vars, steps = drawn
        formula = CNF(num_vars)
        written: list[list[int]] = []
        touched: set[int] = set()
        for clauses in steps:
            for clause in clauses:
                written.append(clause)
                formula.add_clause(clause)
                touched.update(map(abs, clause))
            # Two fresh solvers fed the same clauses: same models.
            solver = solver_for(num_vars, written)
            result = solver.solve()
            expected = brute_force_solve(formula) is not None
            assert result.satisfiable == expected, to_dimacs(formula)
            again = solver_for(num_vars, written).solve()
            assert again.satisfiable == result.satisfiable
            assert again.assignment == result.assignment
            # Every unassigned candidate is still queued.
            assert not unqueued_candidates(solver)
            if not result.satisfiable:
                continue
            assert sorted(result.assignment) == list(range(1, num_vars + 1))
            assert evaluate(formula, result.assignment)
            assert len(solver._heap) <= num_vars
            stored = {abs(lit) for c in solver.clauses for lit in c}
            if not result.conflicts:
                assert result.decisions <= len(stored)
            for var in range(1, num_vars + 1):
                if var not in touched:
                    assert result.assignment[var] is False

    def test_untouched_variable_reports_saved_phase(self):
        result = solver_for(6, [[1, 2], [3]]).solve()
        # 3 is named by a unit only, 6 by nothing: neither is decided.
        assert result.assignment[3] is True and result.assignment[6] is False
        assert result.decisions <= 1

    def test_variable_named_after_a_solve_is_constrained(self):
        # 3 is unconstrained by the first formula and keeps its phase;
        # the formulas that grow from it name 3 and constrain it.
        grown = [[1, 2]]
        assert solver_for(3, grown).solve().assignment[3] is False
        grown += [[3, 1], [3, -1]]
        result = solver_for(3, grown).solve()
        assert result.satisfiable and result.assignment[3] is True
        grown.append([-3])
        assert solver_for(3, grown).solve().satisfiable is False

    def test_variable_assigned_by_a_unit_before_a_clause_names_it(self):
        # The unit [-3] reduces [3, 1] to [1] and then [3, 2, -1] to [2].
        result = solver_for(3, [[-3], [3, 1], [3, 2, -1]]).solve()
        assert result.assignment == {1: True, 2: True, 3: False}
        assert result.decisions == 0

    def test_lemma_variables_stay_constrained(self):
        # Exact-3 clauses near the phase transition over 10 of 12
        # variables, each pinned further by one literal of a variable
        # some lemma of the unpinned formula names: a solve that learns
        # lemmas still matches enumeration, and 11 and 12, which only a
        # unit or nothing names, keep the unit's value and their phase.
        rng = DeterministicRandom(5)
        learned = 0
        for _ in range(6):
            cnf = CNF(12)
            for _ in range(43):
                variables = rng.sample(range(1, 11), 3)
                cnf.add_clause(
                    [v if rng.random() < 0.5 else -v for v in variables]
                )
            solver = SatSolver(cnf)
            stored = len(solver.clauses)
            solver.solve()
            lemma_vars = {
                abs(lit) for lemma in solver.clauses[stored:] for lit in lemma
            }
            for var in sorted(lemma_vars):
                for lit in (var, -var):
                    extended = cnf.copy()
                    extended.add_unit(lit)
                    expected = brute_force_solve(extended) is not None
                    extended.add_unit(11)
                    result = SatSolver(extended).solve()
                    learned += result.learned_clauses
                    assert result.satisfiable == expected
                    if expected:
                        assert result.assignment[11] is True
                        assert result.assignment[12] is False
        assert learned


class TestMalformedInput:
    def test_literal_zero_is_rejected_before_it_is_stored(self):
        solver = SatSolver(CNF(2))
        with pytest.raises(ValueError, match="0 is not a valid literal"):
            solver.add_clause([1, 0, 2])
        assert solver.clauses == [] and solver.num_clauses == 0
        assert solver.solve().satisfiable is True

class TestOneShot:
    def test_second_solve_raises(self):
        for clauses in ([[1, 2]], [[1], [-1]]):
            solver = solver_for(2, clauses)
            solver.solve()
            with pytest.raises(RuntimeError, match="solves once"):
                solver.solve()


class TestBudget:
    def test_conflict_budget_returns_unknown(self):
        # Hard pigeonhole instance with tiny budget.
        def var(i, j):
            return i * 4 + j + 1

        clauses = [[var(i, j) for j in range(4)] for i in range(5)]
        for j in range(4):
            for a in range(5):
                for b in range(a + 1, 5):
                    clauses.append([-var(a, j), -var(b, j)])
        cnf = make_cnf(20, clauses)
        result = SatSolver(cnf).solve(max_conflicts=3)
        assert result.satisfiable is None


class TestLuby:
    def test_luby_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestStats:
    def test_stats_populated(self):
        cnf = make_cnf(4, [[1, 2], [-1, 3], [-3, -2], [2, 4]])
        result = solve(cnf)
        assert result.propagations > 0
        assert result.satisfiable is not None
