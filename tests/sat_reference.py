"""Reference SAT helpers the solver tests compare against.

:func:`brute_force_solve` enumerates all assignments over the formula's
variables and reports the first model found (exponential by nature, so
it is guarded against formulas with more than 24 variables);
:func:`evaluate` checks a model against a formula;
:func:`unqueued_candidates` audits the solver's branching heap; the
DIMACS functions dump and reload formulas for failure messages and
fixtures.
"""

from __future__ import annotations

from typing import TextIO

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


def evaluate(cnf: CNF, assignment: dict[int, bool]) -> bool:
    """Evaluate under a *total* assignment (var -> bool)."""
    return all(
        any((lit > 0) == assignment[abs(lit)] for lit in clause)
        for clause in cnf.clauses()
    )


def unqueued_candidates(solver) -> set[int]:
    """Unassigned variables a stored clause of ``solver`` (a
    :class:`~repro.sat.solver.SatSolver`) names that have no current
    entry on its branching heap.  Search ends when the heap runs dry,
    so one variable in this set is one the search never decides."""
    queued = {
        var
        for neg_act, var in solver._heap
        if -neg_act == solver.activity[var]
    }
    named = {abs(lit) for clause in solver.clauses for lit in clause}
    return {var for var in named - queued if not solver.values[var]}


def to_dimacs(cnf: CNF) -> str:
    """Serialize to DIMACS CNF text."""
    lines = [f"p cnf {cnf.num_vars} {cnf.num_clauses}"]
    for clause in cnf.clauses():
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def write_dimacs(cnf: CNF, stream: TextIO) -> None:
    """Write DIMACS text to a stream."""
    stream.write(to_dimacs(cnf))


def from_dimacs(text: str) -> CNF:
    """Parse DIMACS CNF text (comments and header tolerated)."""
    cnf = CNF()
    declared_vars = 0
    pending: list[int] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            declared_vars = int(parts[2])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                cnf.add_clause(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        # Tolerate a final clause missing its 0 terminator.
        cnf.add_clause(pending)
    cnf.ensure_var(declared_vars)
    return cnf
