"""Tests for CNF encoding helpers: Tseitin gates and the ITE chain."""

import itertools

from repro.sat.cnf import CNF
from repro.sat.encode import (
    clause_and,
    clause_or,
    constant,
    ite_chain,
)
from repro.sat.solver import solve


def models_of(cnf, projection):
    """All satisfying assignments projected onto the given variables."""
    found = set()
    num_vars = cnf.num_vars
    clause_list = list(cnf.clauses())
    for bits in range(1 << num_vars):
        assignment = {
            var: bool(bits >> (var - 1) & 1) for var in range(1, num_vars + 1)
        }
        if all(
            any((lit > 0) == assignment[abs(lit)] for lit in clause)
            for clause in clause_list
        ):
            found.add(tuple(assignment[v] for v in projection))
    return found


class TestClauseAnd:
    def test_and_gate_truth_table(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        s = clause_and(cnf, [a, b])
        # For every total assignment, s must equal a & b.
        for va, vb in itertools.product([False, True], repeat=2):
            trial = cnf.copy()
            trial.add_unit(a if va else -a)
            trial.add_unit(b if vb else -b)
            result = solve(trial)
            assert result.satisfiable
            assert result.assignment[s] == (va and vb)

    def test_empty_and_is_true(self):
        cnf = CNF()
        s = clause_and(cnf, [])
        result = solve(cnf)
        assert result.assignment[s] is True


class TestClauseOr:
    def test_or_gate_truth_table(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        s = clause_or(cnf, [a, -b])
        for va, vb in itertools.product([False, True], repeat=2):
            trial = cnf.copy()
            trial.add_unit(a if va else -a)
            trial.add_unit(b if vb else -b)
            result = solve(trial)
            assert result.satisfiable
            assert result.assignment[s] == (va or not vb)

    def test_empty_or_is_false(self):
        cnf = CNF()
        s = clause_or(cnf, [])
        result = solve(cnf)
        assert result.assignment[s] is False


class TestConstant:
    def test_constants(self):
        cnf = CNF()
        t = constant(cnf, True)
        f = constant(cnf, False)
        result = solve(cnf)
        assert result.assignment[t] is True
        assert result.assignment[f] is False


class TestIteChain:
    def evaluate_chain(self, guards_values, else_value):
        """Reference semantics of If(g1,v1, If(g2,v2, ..., else))."""
        for guard, value in guards_values:
            if guard:
                return value
        return else_value

    def test_chain_matches_reference_semantics(self):
        # 2 branches + else: enumerate all inputs.
        for assignment in itertools.product([False, True], repeat=5):
            g1, v1, g2, v2, ev = assignment
            cnf = CNF()
            lits = [cnf.new_var() for _ in range(5)]
            s = ite_chain(
                cnf, [(lits[0], lits[1]), (lits[2], lits[3])], lits[4]
            )
            for lit, val in zip(lits, assignment):
                cnf.add_unit(lit if val else -lit)
            result = solve(cnf)
            assert result.satisfiable
            expected = self.evaluate_chain([(g1, v1), (g2, v2)], ev)
            assert result.assignment[s] == expected

    def test_empty_chain_is_else(self):
        cnf = CNF()
        e = cnf.new_var()
        assert ite_chain(cnf, [], e) == e

    def test_long_chain_segmentation(self):
        # 40 branches with max_segment=4 exercises the postfix
        # substitution path; first true guard at position 25.
        cnf = CNF()
        branches = []
        for i in range(40):
            guard = cnf.new_var()
            value = cnf.new_var()
            cnf.add_unit(guard if i == 25 else -guard)
            cnf.add_unit(value if i == 25 else -value)
            branches.append((guard, value))
        else_lit = constant(cnf, False)
        s = ite_chain(cnf, branches, else_lit, max_segment=4)
        cnf.add_unit(s)
        assert solve(cnf).satisfiable

    def test_chain_false_when_selected_value_false(self):
        cnf = CNF()
        guard = constant(cnf, True)
        value = constant(cnf, False)
        s = ite_chain(cnf, [(guard, value)], constant(cnf, True))
        cnf.add_unit(s)
        assert solve(cnf).satisfiable is False


class TestEquisatisfiability:
    def test_tseitin_or_preserves_model_count_on_projection(self):
        # s <-> (a | b): projecting models onto (a, b) with s asserted
        # gives exactly the assignments where a|b holds.
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        s = clause_or(cnf, [a, b])
        cnf.add_unit(s)
        projected = models_of(cnf, [a, b])
        assert projected == {(False, True), (True, False), (True, True)}
