"""CNF encoding building blocks (paper Appendix B).

The probe-generation compiler needs a handful of formula operations that
stay polynomial when converted to CNF:

* conjunction of clause lists — concatenation;
* disjunction — Tseitin transform with fresh selector variables rather
  than distribution (which blows up exponentially);
* the if-then-else *chain* of the Distinguish constraint, mimicking
  TCAM priority evaluation.  The chain is only ever asserted true, so
  instead of the quadratic construction of Velev cited by the paper it
  takes one prefix variable and two short clauses per branch
  (:func:`assert_if_chain`).

Each helper appends clauses to a shared :class:`~repro.sat.cnf.CNF` and
returns, where meaningful, a literal that is true iff the encoded
sub-formula holds (equisatisfiability via Tseitin).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.sat.cnf import Lit


class ClauseSink(Protocol):
    """Where encode helpers put clauses.

    Satisfied structurally by :class:`~repro.sat.cnf.CNF` and by
    :class:`~repro.sat.solver.SatSolver`, so the same helpers target a
    formula container or the solver about to run.
    """

    def new_var(self) -> int: ...

    def add_clause(self, literals: Sequence[Lit]) -> None: ...

    def add_unit(self, lit: Lit) -> None: ...


def clause_and(cnf: ClauseSink, literals: Sequence[Lit]) -> Lit:
    """Fresh literal ``s`` with ``s <-> AND(literals)``.

    Empty input yields a literal constrained to true.
    """
    s = cnf.new_var()
    if not literals:
        cnf.add_unit(s)
        return s
    # s -> li  for each i
    for lit in literals:
        cnf.add_clause((-s, lit))
    # (l1 & ... & ln) -> s
    cnf.add_clause([s] + [-lit for lit in literals])
    return s


def clause_or(cnf: ClauseSink, literals: Sequence[Lit]) -> Lit:
    """Fresh literal ``s`` with ``s <-> OR(literals)``.

    Empty input yields a literal constrained to false.
    """
    s = cnf.new_var()
    if not literals:
        cnf.add_unit(-s)
        return s
    # li -> s  for each i
    for lit in literals:
        cnf.add_clause((-lit, s))
    # s -> (l1 | ... | ln)
    cnf.add_clause([-s] + list(literals))
    return s


def assert_if_chain(
    cnf: ClauseSink,
    branches: Sequence[tuple[Lit, "bool | Lit"]],
    else_value: "bool | Lit",
) -> None:
    """Assert ``If(g1,v1, If(g2,v2, ..., else)) = true`` in linear size.

    ``branches`` is a list of ``(guard_lit, value)`` pairs in priority
    order; values may be constants (``True``/``False``) or literals.

    Unlike the quadratic constructions (Velev's, and the
    clause-per-branch prefix expansion), this uses one fresh
    *prefix* variable per branch: ``q_k`` is forced true exactly when
    guards ``1..k`` are all false (one-sided Plaisted–Greenbaum
    direction, sufficient because the chain is only asserted, never
    negated), giving 2 clauses of <= 3 literals per branch:

        q_{k-1} & g_k  -> v_k        (the branch fires)
        q_{k-1} & !g_k -> q_k        (the prefix stays all-false)
        q_n -> else                  (no guard fired)

    ``cnf`` only needs ``new_var``/``add_clause``, so the solver about
    to run works as well as a plain :class:`CNF`.
    """
    prev_q: Lit | None = None  # None encodes the constant-true prefix
    for guard, value in branches:
        if value is not True:
            clause: list[Lit] = [] if prev_q is None else [-prev_q]
            clause.append(-guard)
            if value is not False:
                clause.append(value)
            cnf.add_clause(clause)
        q = cnf.new_var()
        clause = [] if prev_q is None else [-prev_q]
        clause.extend((guard, q))
        cnf.add_clause(clause)
        prev_q = q
    if else_value is not True:
        clause = [] if prev_q is None else [-prev_q]
        if else_value is not False:
            clause.append(else_value)
        cnf.add_clause(clause)

