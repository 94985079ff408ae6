"""Tests for CNF encoding helpers: Tseitin gates and the asserted ITE
chain."""

import itertools

from repro.sat.cnf import CNF
from repro.sat.encode import assert_if_chain, clause_and, clause_or
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
            assert (s in result.model) == (va and vb)

    def test_empty_and_is_true(self):
        cnf = CNF()
        s = clause_and(cnf, [])
        result = solve(cnf)
        assert s in result.model


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
            assert (s in result.model) == (va or not vb)

    def test_empty_or_is_false(self):
        cnf = CNF()
        s = clause_or(cnf, [])
        result = solve(cnf)
        assert result.satisfiable and s not in result.model


class TestIteChain:
    def evaluate_chain(self, guards_values, else_value):
        """Reference semantics of If(g1,v1, If(g2,v2, ..., else))."""
        for guard, value in guards_values:
            if guard:
                return value
        return else_value

    def test_chain_matches_reference_semantics(self):
        # 2 branches + else, as literals and as constants: the asserted
        # chain is satisfiable under an input iff the chain is true.
        for assignment in itertools.product([False, True], repeat=5):
            g1, v1, g2, v2, ev = assignment
            expected = self.evaluate_chain([(g1, v1), (g2, v2)], ev)
            for constants in (False, True):
                cnf = CNF()
                lits = [cnf.new_var() for _ in range(5)]
                for lit, val in zip(lits, assignment):
                    cnf.add_unit(lit if val else -lit)
                values = (v1, v2, ev) if constants else lits[1::2] + lits[4:]
                assert_if_chain(
                    cnf,
                    [(lits[0], values[0]), (lits[2], values[1])],
                    values[2],
                )
                assert solve(cnf).satisfiable is expected

    def test_empty_chain_is_else(self):
        cnf = CNF()
        e = cnf.new_var()
        assert_if_chain(cnf, [], True)
        assert cnf.num_clauses == 0
        assert_if_chain(cnf, [], e)
        assert list(cnf.clauses()) == [[e]]
        assert_if_chain(cnf, [], False)
        assert solve(cnf).satisfiable is False

    def test_long_chain_is_linear(self):
        # 40 branches, first true guard at position 25: one prefix
        # variable and at most two clauses per branch.
        cnf = CNF()
        branches = []
        for i in range(40):
            guard = cnf.new_var()
            value = cnf.new_var()
            cnf.add_unit(guard if i == 25 else -guard)
            cnf.add_unit(value if i == 25 else -value)
            branches.append((guard, value))
        size = (cnf.num_vars, cnf.num_clauses)
        assert_if_chain(cnf, branches, False)
        assert cnf.num_vars - size[0] == 40
        assert cnf.num_clauses - size[1] <= 2 * 40 + 1
        assert solve(cnf).satisfiable

    def test_chain_false_when_selected_value_false(self):
        cnf = CNF()
        guard = cnf.new_var()
        cnf.add_unit(guard)
        assert_if_chain(cnf, [(guard, False)], True)
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
