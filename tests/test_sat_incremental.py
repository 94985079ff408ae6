"""Tests for a formula written into the solver clause by clause, the way
an encoder writes one probe's formula: units first or last, clauses
that units already decide, and one solve at the end.
"""

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver


def solve_clauses(num_vars, clauses):
    solver = SatSolver(CNF(num_vars))
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()


class TestCoreSolverIncrementalSurface:
    def test_clause_falsified_by_previous_level0_trail(self):
        """Regression: a clause all of whose literals earlier units make
        false must make the formula UNSAT — not be silently ignored
        because its two watches are falsified before search starts."""
        assert solve_clauses(2, [[-1], [-2], [1, 2]]).satisfiable is False

    def test_clause_reduced_to_unit_by_level0_trail(self):
        result = solve_clauses(3, [[-1], [1, 3]])  # reduces to unit [3]
        assert result.satisfiable is True
        assert result.assignment[3] is True
        assert result.decisions == 0
        assert solve_clauses(3, [[-1], [1, 3], [-3]]).satisfiable is False

    def test_clause_satisfied_by_level0_trail_is_redundant(self):
        result = solve_clauses(2, [[1], [1, 2], [-2]])
        assert result.satisfiable is True
        assert result.assignment == {1: True, 2: False}

    def test_literal_zero_reaches_neither_store(self):
        solver = SatSolver(CNF(2))
        for malformed in ([0], [1, 0, 2]):
            with pytest.raises(ValueError, match="0 is not a valid literal"):
                solver.add_clause(malformed)
        assert solver.num_clauses == 0
        assert solver.clauses == [] and solver._units == []
        assert solver.solve().satisfiable is True
