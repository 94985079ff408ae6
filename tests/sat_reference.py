"""Exhaustive reference SAT solver the CDCL tests compare against.

Enumerates all assignments over the formula's variables and reports the
first model found.  Exponential by nature, so it is guarded against
formulas with more than 24 variables.
"""

from __future__ import annotations

from repro.sat.cnf import CNF

MAX_BRUTE_VARS = 24


def brute_force_solve(cnf: CNF) -> dict[int, bool] | None:
    """Return a satisfying assignment by enumeration, or None if UNSAT.

    Raises:
        ValueError: if the formula has too many variables to enumerate.
    """
    n = cnf.num_vars
    if n > MAX_BRUTE_VARS:
        raise ValueError(
            f"brute force limited to {MAX_BRUTE_VARS} vars, got {n}"
        )
    clause_list = list(cnf.clauses())
    for bits in range(1 << n):
        assignment = {
            var: bool(bits >> (var - 1) & 1) for var in range(1, n + 1)
        }
        ok = True
        for clause in clause_list:
            if not clause:
                return None  # empty clause: UNSAT regardless of assignment
            if not any((lit > 0) == assignment[abs(lit)] for lit in clause):
                ok = False
                break
        if ok:
            return assignment
    return None
