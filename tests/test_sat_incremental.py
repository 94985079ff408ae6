"""Tests for malformed input written into the solver clause by clause:
a bad clause must leave no trace in either of the solver's stores."""

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver


class TestCoreSolverIncrementalSurface:
    def test_literal_zero_reaches_neither_store(self):
        """A unit ``[0]`` and a longer clause holding 0 are both refused
        before the unit list or the clause list sees them."""
        solver = SatSolver(CNF(2))
        for malformed in ([0], [1, 0, 2]):
            with pytest.raises(ValueError, match="0 is not a valid literal"):
                solver.add_clause(malformed)
        assert solver.num_clauses == 0
        assert solver.clauses == [] and solver._units == []
        assert solver.solve().satisfiable is True
