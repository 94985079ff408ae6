"""Tests for the CNF container and DIMACS I/O."""

import io

import pytest

from repro.sat.cnf import CNF
from sat_reference import (
    evaluate,
    from_dimacs,
    model_of,
    to_dimacs,
    write_dimacs,
)


class TestVariables:
    def test_new_var_sequence(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_ensure_var_grows(self):
        cnf = CNF()
        cnf.ensure_var(10)
        assert cnf.num_vars == 10
        cnf.ensure_var(5)
        assert cnf.num_vars == 10

    def test_add_clause_grows_vars(self):
        cnf = CNF()
        cnf.add_clause([7, -9])
        assert cnf.num_vars == 9

    def test_negative_initial_vars_rejected(self):
        with pytest.raises(ValueError):
            CNF(-1)


class TestClauses:
    def test_clause_iteration_roundtrip(self):
        cnf = CNF()
        clauses = [[1, -2], [3], [-1, 2, -3]]
        cnf.extend(clauses)
        assert list(cnf.clauses()) == clauses
        assert cnf.num_clauses == 3

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1, 0])

    def test_empty_clause_allowed(self):
        cnf = CNF()
        cnf.add_clause([])
        assert list(cnf.clauses()) == [[]]

    def test_add_unit(self):
        cnf = CNF()
        cnf.add_unit(-4)
        assert list(cnf.clauses()) == [[-4]]

    def test_copy_independent(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        dup = cnf.copy()
        dup.add_clause([3])
        assert cnf.num_clauses == 1
        assert dup.num_clauses == 2


class TestDimacs:
    def test_serialize(self):
        cnf = CNF()
        cnf.add_clause([1, -2])
        cnf.add_clause([2, 3])
        text = to_dimacs(cnf)
        assert text.splitlines()[0] == "p cnf 3 2"
        assert "1 -2 0" in text

    def test_roundtrip(self):
        cnf = CNF()
        cnf.extend([[1, -2], [3], [-1, -3]])
        parsed = from_dimacs(to_dimacs(cnf))
        assert list(parsed.clauses()) == list(cnf.clauses())
        assert parsed.num_vars == cnf.num_vars

    def test_parse_with_comments(self):
        text = "c a comment\np cnf 3 2\n1 2 0\nc mid comment\n-3 0\n"
        cnf = from_dimacs(text)
        assert list(cnf.clauses()) == [[1, 2], [-3]]
        assert cnf.num_vars == 3

    def test_parse_multiline_clause(self):
        text = "p cnf 3 1\n1 2\n3 0\n"
        cnf = from_dimacs(text)
        assert list(cnf.clauses()) == [[1, 2, 3]]

    def test_parse_missing_final_zero(self):
        cnf = from_dimacs("p cnf 2 1\n1 -2")
        assert list(cnf.clauses()) == [[1, -2]]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            from_dimacs("p qbf 2 1\n1 0\n")

    def test_write_dimacs_stream(self):
        cnf = CNF()
        cnf.add_clause([1])
        buffer = io.StringIO()
        write_dimacs(cnf, buffer)
        assert buffer.getvalue() == to_dimacs(cnf)


class TestEvaluate:
    def test_evaluate_true(self):
        cnf = CNF()
        cnf.extend([[1, 2], [-1, 2]])
        assert evaluate(cnf, model_of({1: False, 2: True}))

    def test_evaluate_false(self):
        cnf = CNF()
        cnf.extend([[1], [2]])
        assert not evaluate(cnf, model_of({1: True, 2: False}))
