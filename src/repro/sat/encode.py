"""CNF encoding building blocks (paper Appendix B).

The probe-generation compiler needs a handful of formula operations that
stay polynomial when converted to CNF:

* conjunction of clause lists — concatenation;
* disjunction — Tseitin transform with fresh selector variables rather
  than distribution (which blows up exponentially);
* the if-then-else *chain* encoding of the Distinguish constraint,
  mimicking TCAM priority evaluation, using the quadratic construction of
  Velev cited by the paper.

Each helper appends clauses to a shared :class:`~repro.sat.cnf.CNF` and
returns, where meaningful, a literal that is true iff the encoded
sub-formula holds (equisatisfiability via Tseitin).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.sat.cnf import Lit


class ClauseSink(Protocol):
    """Where encode helpers put clauses.

    Satisfied structurally by :class:`~repro.sat.cnf.CNF`, by
    :class:`~repro.sat.solver.SatSolver` and by the incremental solver
    adapter (:class:`~repro.core.constraints.SolverSink`), so the same
    helpers target a formula container, the solver about to run, or a
    persistent solver context.
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


def ite_chain(
    cnf: ClauseSink,
    branches: Sequence[tuple[Lit, Lit]],
    else_lit: Lit,
    max_segment: int = 16,
) -> Lit:
    """Encode ``s = if(i1,t1, if(i2,t2, ... , else))`` and return ``s``.

    ``branches`` is a list of ``(condition_lit, then_lit)`` pairs in
    priority order — exactly the shape of the Distinguish constraint,
    where condition ``i_k`` is "probe matches lower-priority rule k" and
    ``t_k`` is "rule k's outcome differs from the probed rule's".

    Uses the quadratic Velev construction from Appendix B.  Because the
    construction is quadratic in the number of branches, long chains are
    split into segments of ``max_segment`` branches, each segment's tail
    replaced by a fresh variable (the appendix's "substituting some
    postfix of the chain by a fresh variable").
    """
    if not branches:
        return else_lit
    if len(branches) > max_segment:
        head = branches[:max_segment]
        tail_lit = ite_chain(
            cnf, branches[max_segment:], else_lit, max_segment=max_segment
        )
        return ite_chain(cnf, head, tail_lit, max_segment=max_segment)

    s = cnf.new_var()
    # Velev: for branch k with guard i_k and value t_k, with all earlier
    # guards false:
    #   (i1..ik-1 false, ik true) -> (s <-> tk)
    # realized as two clauses per branch; plus two for the else branch.
    prefix: list[Lit] = []  # literals i1, i2, ... of earlier branches
    for cond, then in branches:
        cnf.add_clause(prefix + [-cond, -then, s])
        cnf.add_clause(prefix + [-cond, then, -s])
        prefix.append(cond)
    cnf.add_clause(prefix + [-else_lit, s])
    cnf.add_clause(prefix + [else_lit, -s])
    return s


def assert_ite_chain(
    cnf: ClauseSink,
    branches: Sequence[tuple[Lit, "bool | Lit"]],
    else_value: "bool | Lit",
) -> None:
    """Assert ``If(g1,v1, If(g2,v2, ..., else)) = true`` in linear size.

    ``branches`` is a list of ``(guard_lit, value)`` pairs in priority
    order; values may be constants (``True``/``False``) or literals.

    Unlike the quadratic constructions (:func:`ite_chain`, and the
    clause-per-branch prefix expansion it replaced), this uses one fresh
    *prefix* variable per branch: ``q_k`` is forced true exactly when
    guards ``1..k`` are all false (one-sided Plaisted–Greenbaum
    direction, sufficient because the chain is only asserted, never
    negated), giving 2 clauses of <= 3 literals per branch:

        q_{k-1} & g_k  -> v_k        (the branch fires)
        q_{k-1} & !g_k -> q_k        (the prefix stays all-false)
        q_n -> else                  (no guard fired)

    ``cnf`` only needs ``new_var``/``add_clause``, so incremental
    solver adapters work as well as a plain :class:`CNF`.
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


def constant(cnf: ClauseSink, value: bool) -> Lit:
    """Fresh literal pinned to ``value``."""
    s = cnf.new_var()
    cnf.add_unit(s if value else -s)
    return s
