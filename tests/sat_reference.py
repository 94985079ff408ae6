"""Reference SAT helpers the solver tests compare against.

A model is written the way :class:`~repro.sat.solver.SatResult` writes
it: the set of variables it sets true, every other variable false.
:func:`brute_force_solve` enumerates all assignments over the formula's
variables and reports the first model found (exponential by nature, so
it is guarded against formulas with more than 24 variables);
:func:`evaluate` checks a model against a formula; :func:`model_of`
turns a total assignment into a model, for whole-model comparisons;
:func:`false_first_model` is the model a solve that meets no conflict
must return; the DIMACS functions dump and reload formulas for failure
messages and fixtures.
"""

from __future__ import annotations

from typing import AbstractSet, TextIO

from repro.sat.cnf import CNF

MAX_BRUTE_VARS = 24


def brute_force_solve(cnf: CNF) -> frozenset[int] | None:
    """Return a satisfying model by enumeration, or None if UNSAT.

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
        model = frozenset(
            var for var in range(1, n + 1) if bits >> (var - 1) & 1
        )
        ok = True
        for clause in clause_list:
            if not clause:
                return None  # empty clause: UNSAT regardless of assignment
            if not any((lit > 0) == (abs(lit) in model) for lit in clause):
                ok = False
                break
        if ok:
            return model
    return None


def evaluate(cnf: CNF, model: AbstractSet[int]) -> bool:
    """Evaluate under ``model``: the variables it holds are true, every
    other variable is false."""
    return all(
        any((lit > 0) == (abs(lit) in model) for lit in clause)
        for clause in cnf.clauses()
    )


def model_of(assignment: dict[int, bool]) -> frozenset[int]:
    """The model of a total assignment (var -> bool): the variables it
    sets true."""
    return frozenset(var for var, value in assignment.items() if value)


def false_first_model(cnf: CNF) -> frozenset[int] | None:
    """Unit propagation, then each variable a stored clause names, in
    ascending order, set false and propagated; the model reached, or
    None if a clause is falsified on the way.

    A stored clause is one of two or more distinct literals that is no
    tautology (what :class:`~repro.sat.solver.SatSolver` keeps and
    decides over); a variable nothing assigns is false.  Propagation
    runs to a fixpoint, so its order does not matter.
    """
    clauses = [set(clause) for clause in cnf.clauses()]
    clauses = [c for c in clauses if not any(-lit in c for lit in c)]
    named = sorted({abs(lit) for c in clauses if len(c) > 1 for lit in c})
    value: dict[int, bool] = {}

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                if any(value.get(abs(lit)) == (lit > 0) for lit in clause):
                    continue
                free = [lit for lit in clause if abs(lit) not in value]
                if not free:
                    return False
                if len(free) == 1:
                    value[abs(free[0])] = free[0] > 0
                    changed = True
        return True

    if not propagate():
        return None
    for var in named:
        if var not in value:
            value[var] = False
            if not propagate():
                return None
    return frozenset(var for var, true in value.items() if true)


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
