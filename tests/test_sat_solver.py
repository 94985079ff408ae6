"""Tests for the CDCL SAT solver against hand-built and random formulas."""


from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver, _luby, solve
from repro.sim.random import DeterministicRandom
from sat_reference import brute_force_solve, evaluate, to_dimacs


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

    def test_assumptions_restrict_models(self):
        cnf = make_cnf(2, [[1, 2]])
        result = SatSolver(cnf).solve(assumptions=[-1])
        assert result.satisfiable
        assert result.assignment[2] is True

    def test_conflicting_assumption(self):
        cnf = make_cnf(1, [[1]])
        assert SatSolver(cnf).solve(assumptions=[-1]).satisfiable is False

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
