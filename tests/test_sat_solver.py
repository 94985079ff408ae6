"""Tests for the DPLL SAT solver against hand-built and random formulas.

The paper runs a CDCL solver (PicoSAT, §7) on formulas encoded whole.
Here the Hit ∧ Collect cube fold leaves the solver a small residue, so
DPLL with chronological backtracking serves it; these tests hold its
verdicts to enumeration, its models to the decision rule the fleet
results rely on, and its search to the conflict budget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver, solve
from repro.sim.random import DeterministicRandom
from sat_reference import (
    brute_force_solve,
    evaluate,
    false_first_model,
    model_of,
    to_dimacs,
)


def make_cnf(num_vars, clauses):
    cnf = CNF(num_vars)
    cnf.extend(clauses)
    return cnf


def pigeonhole(pigeons, holes):
    """Clauses of "every pigeon in a hole, no two in one", over
    variables ``1 .. pigeons * holes``."""

    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return clauses


class TestBasics:
    def test_empty_formula_sat(self):
        assert solve(CNF()).satisfiable is True

    def test_single_unit(self):
        cnf = make_cnf(1, [[1]])
        result = solve(cnf)
        assert result.satisfiable
        assert 1 in result.model

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
        assert result.model == frozenset(range(1, n + 1))

    def test_model_satisfies_formula(self):
        cnf = make_cnf(4, [[1, 2], [-1, 3], [-2, -3], [3, 4], [-4, 1]])
        result = solve(cnf)
        assert result.satisfiable
        assert evaluate(cnf, result.model)

    def test_pigeonhole_3_into_2_unsat(self):
        assert solve(make_cnf(6, pigeonhole(3, 2))).satisfiable is False

    def test_duplicate_literals_tolerated(self):
        cnf = make_cnf(2, [[1, 1, 2], [-1, -1]])
        result = solve(cnf)
        assert result.satisfiable
        assert 1 not in result.model

    def test_tautological_clause_ignored(self):
        cnf = make_cnf(2, [[1, -1], [2]])
        result = solve(cnf)
        assert result.satisfiable
        assert 2 in result.model


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
                assert evaluate(cnf, result.model)


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
    """Decisions go over what stored clauses name; everything else
    costs no decision and is false unless the trail holds it true."""

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
            assert again.model == result.model
            if not result.satisfiable:
                continue
            assert result.model <= frozenset(range(1, num_vars + 1))
            assert evaluate(formula, result.model)
            # Search ends only with every named variable assigned.
            stored = {abs(lit) for c in solver.clauses for lit in c}
            assert all(solver.values[var] for var in stored)
            if not result.conflicts:
                assert result.decisions <= len(stored)
            for var in range(1, num_vars + 1):
                if var not in touched:
                    assert var not in result.model

    def test_untouched_variable_false_unless_on_trail(self):
        result = solver_for(6, [[1, 2], [3]]).solve()
        # 3 is named by a unit only, 6 by nothing: neither is decided;
        # the unit put 3 on the trail, nothing put 6 there.
        assert 3 in result.model and 6 not in result.model
        assert result.decisions <= 1

    def test_variable_named_after_a_solve_is_constrained(self):
        # 3 is unconstrained by the first formula and keeps its phase;
        # the formulas that grow from it name 3 and constrain it.
        grown = [[1, 2]]
        first = solver_for(3, grown).solve()
        assert first.satisfiable and 3 not in first.model
        grown += [[3, 1], [3, -1]]
        result = solver_for(3, grown).solve()
        assert result.satisfiable and 3 in result.model
        grown.append([-3])
        assert solver_for(3, grown).solve().satisfiable is False

    def test_variable_assigned_by_a_unit_before_a_clause_names_it(self):
        # The unit [-3] reduces [3, 1] to [1] and then [3, 2, -1] to [2].
        result = solver_for(3, [[-3], [3, 1], [3, 2, -1]]).solve()
        assert result.model == model_of({1: True, 2: True, 3: False})
        assert result.decisions == 0

    def test_pinned_formulas_match_enumeration(self):
        # Exact-3 clauses near the phase transition over 10 of 12
        # variables, each pinned further by one literal of one of the
        # ten: solves that backtrack still match enumeration, and 11
        # and 12, which only a unit or nothing names, keep the unit's
        # value and stay false.
        rng = DeterministicRandom(5)
        conflicts = 0
        for _ in range(6):
            cnf = CNF(12)
            for _ in range(43):
                variables = rng.sample(range(1, 11), 3)
                cnf.add_clause(
                    [v if rng.random() < 0.5 else -v for v in variables]
                )
            for var in range(1, 11):
                for lit in (var, -var):
                    extended = cnf.copy()
                    extended.add_unit(lit)
                    expected = brute_force_solve(extended) is not None
                    extended.add_unit(11)
                    result = SatSolver(extended).solve()
                    conflicts += result.conflicts
                    assert result.satisfiable == expected
                    if expected:
                        assert 11 in result.model
                        assert 12 not in result.model
        assert conflicts


@st.composite
def small_formulas(draw):
    """A formula of up to 14 clauses of one to three literals over up
    to 10 variables: most solve without a conflict, some do not."""
    num_vars = draw(st.integers(1, 10))
    literal = st.builds(
        lambda var, sign: var * sign,
        st.integers(1, num_vars),
        st.sampled_from((1, -1)),
    )
    clauses = draw(
        st.lists(st.lists(literal, min_size=1, max_size=3), max_size=14)
    )
    return make_cnf(num_vars, clauses)


class TestDecisionRule:
    """The rule that keeps the fleet's probes where they are: a solve
    that meets no conflict returns the model of unit propagation
    followed by every named variable, ascending, set false and
    propagated.  No search heuristic may move it."""

    @settings(max_examples=400, deadline=None)
    @given(small_formulas())
    def test_conflict_free_solve_is_the_false_first_model(self, cnf):
        result = solve(cnf)
        expected = false_first_model(cnf)
        # The reference's descent meets a conflict exactly when the
        # solver's first descent does.
        conflict_free_sat = result.satisfiable is True and not result.conflicts
        assert conflict_free_sat == (expected is not None), to_dimacs(cnf)
        if expected is not None:
            assert result.model == expected, to_dimacs(cnf)

    def test_a_conflict_free_solve_decides_false_in_order(self):
        # 1 and 2 decided false force 3 and then 4; 5 is decided false.
        cnf = make_cnf(5, [[1, 2, 3], [-3, 4], [4, 5]])
        result = solve(cnf)
        assert result.conflicts == 0
        assert result.model == false_first_model(cnf) == {3, 4}


class TestClauseByClause:
    """A formula written into the solver clause by clause, the way an
    encoder writes one probe's formula: units first or last, clauses
    that units already decide, and one solve at the end."""

    def test_clause_falsified_by_previous_level0_trail(self):
        """Regression: a clause all of whose literals earlier units make
        false must make the formula UNSAT — not be silently ignored
        because its two watches are falsified before search starts."""
        result = solver_for(2, [[-1], [-2], [1, 2]]).solve()
        assert result.satisfiable is False

    def test_clause_reduced_to_unit_by_level0_trail(self):
        result = solver_for(3, [[-1], [1, 3]]).solve()  # reduces to [3]
        assert result.satisfiable is True
        assert 3 in result.model
        assert result.decisions == 0
        unsat = solver_for(3, [[-1], [1, 3], [-3]]).solve()
        assert unsat.satisfiable is False

    def test_clause_satisfied_by_level0_trail_is_redundant(self):
        result = solver_for(2, [[1], [1, 2], [-2]]).solve()
        assert result.satisfiable is True
        assert result.model == model_of({1: True, 2: False})


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
        cnf = make_cnf(20, pigeonhole(5, 4))
        result = SatSolver(cnf).solve(max_conflicts=3)
        assert result.satisfiable is None


class TestStats:
    def test_stats_populated(self):
        cnf = make_cnf(4, [[1, 2], [-1, 3], [-3, -2], [2, 4]])
        result = solve(cnf)
        assert result.propagations > 0
        assert result.satisfiable is not None
