"""CNF formula container.

Literals use the DIMACS convention: variable ``v`` (a positive integer)
appears as ``v`` for the positive literal and ``-v`` for its negation.

Clauses are stored in a single flat list of ints with ``0`` terminators —
the one-dimensional layout the paper adopted after finding that nested
vectors (one small allocation per clause) dominated conversion time (§7).
The container hides the flat layout behind iteration helpers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: A DIMACS literal: +v or -v for variable v >= 1.
Lit = int


class CNF:
    """A growable CNF formula.

    Example:
        >>> cnf = CNF()
        >>> x, y = cnf.new_var(), cnf.new_var()
        >>> cnf.add_clause([x, -y])
        >>> cnf.num_clauses
        1
    """

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self._num_vars = num_vars
        # Flat clause storage: literals with a 0 terminator per clause.
        self._flat: list[int] = []
        self._num_clauses = 0

    # ----- variables ----------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Highest variable index allocated so far."""
        return self._num_vars

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        return self._num_vars

    def ensure_var(self, var: int) -> None:
        """Grow the variable space to include ``var``."""
        if var > self._num_vars:
            self._num_vars = var

    # ----- clauses --------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        """Number of clauses added."""
        return self._num_clauses

    def add_clause(self, literals: Iterable[Lit]) -> None:
        """Append one clause (a disjunction of literals).

        An empty clause is legal and makes the formula trivially UNSAT.
        """
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.ensure_var(abs(lit))
            self._flat.append(lit)
        # Dedup-free append; solver tolerates duplicates.
        self._flat.append(0)
        self._num_clauses += 1

    def add_unit(self, lit: Lit) -> None:
        """Append a unit clause."""
        self.add_clause((lit,))

    def extend(self, clauses: Iterable[Iterable[Lit]]) -> None:
        """Append many clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def clauses(self) -> Iterator[list[Lit]]:
        """Iterate clauses as literal lists (decoded from flat storage)."""
        current: list[int] = []
        for lit in self._flat:
            if lit == 0:
                yield current
                current = []
            else:
                current.append(lit)

    def copy(self) -> "CNF":
        """Deep copy."""
        dup = CNF(self._num_vars)
        dup._flat = list(self._flat)
        dup._num_clauses = self._num_clauses
        return dup

    def __repr__(self) -> str:
        return f"CNF(vars={self._num_vars}, clauses={self._num_clauses})"
