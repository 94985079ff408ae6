"""Tests for the core solver's reuse across calls: clauses added between
`solve` calls, against the level-0 facts earlier calls left behind, and
lemmas kept from one call to the next.
"""

import random

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver


def random_cnf(rng, num_vars, num_clauses, width=3):
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), size)
        cnf.add_clause(
            [v if rng.random() < 0.5 else -v for v in variables]
        )
    return cnf


class TestLearnedRetention:
    def test_repeated_solves_get_cheaper(self):
        # Pigeonhole-ish hard-ish instance solved twice: the second call
        # must not redo the first call's conflicts from scratch.
        rng = random.Random(5)
        solver = SatSolver(random_cnf(rng, 12, 50))
        first = solver.solve()
        second = solver.solve()
        assert second.satisfiable == first.satisfiable
        assert second.conflicts <= first.conflicts

    def test_incremental_solver_is_reusable_after_sat(self):
        solver = SatSolver(CNF(3))
        solver.add_clause([1, 2])
        assert solver.solve().satisfiable is True
        solver.add_clause([-3])  # new permanent knowledge
        result = solver.solve()
        assert result.satisfiable is True and result.assignment[3] is False
        solver.add_clause([3])
        assert solver.solve().satisfiable is False


class TestCoreSolverIncrementalSurface:
    def test_clause_falsified_by_previous_level0_trail(self):
        """Regression: a clause added after a solve call, all of whose
        literals are already false on the permanent level-0 trail, must
        make the formula UNSAT — not be silently ignored because its
        watches never fire."""
        solver = SatSolver(CNF(2))
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve().satisfiable is True  # pins -1, -2 at level 0
        solver.add_clause([1, 2])
        assert solver.solve().satisfiable is False

    def test_clause_reduced_to_unit_by_level0_trail(self):
        solver = SatSolver(CNF(3))
        solver.add_clause([-1])
        assert solver.solve().satisfiable is True
        solver.add_clause([1, 3])  # reduces to unit [3]
        result = solver.solve()
        assert result.satisfiable is True
        assert result.assignment[3] is True
        solver.add_clause([-3])
        assert solver.solve().satisfiable is False

    def test_clause_satisfied_by_level0_trail_is_redundant(self):
        solver = SatSolver(CNF(2))
        solver.add_clause([1])
        assert solver.solve().satisfiable is True
        stored = len(solver.clauses)
        solver.add_clause([1, 2])  # already satisfied forever
        assert len(solver.clauses) == stored
        solver.add_clause([-2])
        assert solver.solve().satisfiable is True

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
        solver = SatSolver(CNF(2))
        assert solver.solve().satisfiable is True
        with pytest.raises(ValueError, match="0 is not a valid literal"):
            solver.add_clause([1, 0, 2])
        assert solver.num_clauses == 0 and solver.clauses == []
        assert solver.solve().satisfiable is True


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
