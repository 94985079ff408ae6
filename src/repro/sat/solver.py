"""A DPLL SAT solver (the reproduction's PicoSAT stand-in).

The paper runs PicoSAT, a CDCL solver, because its formulas were
encoded whole (§7).  Here the Hit ∧ Collect cube fold decides most of
each probe's formula before it is encoded, so what reaches the solver
is a small residue: most instances have no clause at all, and a solve
that meets a conflict is rare.  Plain DPLL serves that residue:

* two-watched-literal unit propagation,
* decisions in ascending variable order, false tried first,
* chronological backtracking: a conflict flips the deepest decision
  not yet flipped.

No clause is learned, so the formula a solve ends on is the one it
was given.  Its worst case is exponential; the conflict budget of
:meth:`SatSolver.solve` is what bounds it.

A solve costs what its formula mentions.  The per-variable array
reaches only the highest variable a clause, a unit or :meth:`new_var`
names (``num_vars`` counts every id allocated).  Decisions go over
the variables some *stored* clause names (a clause of two or more
live literals), sorted once when the solve starts.  Search ends when
every one of them is assigned and propagation found no conflict, so
every stored clause is satisfied.  The model is the set of variables
the trail then holds true.  One nothing stored names is never
decided: a unit put it on the trail before any decision, or it was
never assigned and is false.

A solve that meets no conflict decides every variable false that
propagation leaves open, in ascending order, so its model is a
function of the formula alone: no heuristic state can move it.

The solver is deliberately self-contained (lists of ints, no numpy) so
its behaviour is easy to audit and to cross-check against the
brute-force reference the tests carry.

A solver is one-shot, the way the paper runs PicoSAT (§7): an encoder
writes one probe's formula straight into a fresh solver, which solves
it once; a second `solve` raises.  The model it returns is checked
against every clause.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sat.cnf import CNF, Lit


@dataclass
class SatResult:
    """Outcome of a solve call.

    Attributes:
        satisfiable: True / False, or None if the budget ran out.
        model: the variables a satisfying model sets true (only when
            SAT); every other variable, allocated or not, is false.
        conflicts: number of conflicts encountered.
        decisions: number of branching decisions made.
        propagations: number of literals put on the trail (units,
            decisions and flips included).
    """

    satisfiable: bool | None
    model: frozenset[int] = frozenset()
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


class SatSolver:
    """DPLL solver over a :class:`~repro.sat.cnf.CNF` formula.

    The constructor loads the formula; further clauses may be appended
    with :meth:`add_clause` and variables allocated with
    :meth:`new_var` before the one `solve` call.  With those two,
    :meth:`add_unit`, ``num_vars`` and ``num_clauses`` the solver is a
    :class:`~repro.sat.encode.ClauseSink`, so an encoder can write a
    formula straight into the solver that is about to run it.
    """

    def __init__(self, cnf: CNF) -> None:
        self.num_vars = cnf.num_vars
        #: Clauses handed to :meth:`add_clause` so far (units, satisfied
        #: and tautological ones included).
        self.num_clauses = 0
        #: Stored clauses: two or more distinct literals each.
        self.clauses: list[list[int]] = []
        self._contradiction = False
        self._solved = False
        #: Unit clauses, put on the trail before the first decision.
        self._units: list[int] = []

        # Assignment state (index 0 unused): 0 unassigned, 1 true,
        # -1 false.
        self.values: list[int] = [0]
        self.trail: list[int] = []

        # Watched literals: watch lit -> clause indices.
        self.watches: dict[int, list[int]] = {}

        for clause in cnf.clauses():
            self.add_clause(clause)

    # ----- building the formula -----------------------------------------

    @staticmethod
    def _simplify_clause(clause: Sequence[int]) -> list[int] | None:
        """Drop duplicate literals; return None for tautologies."""
        seen: set[int] = set()
        out: list[int] = []
        for lit in clause:
            if -lit in seen:
                return None
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        return out

    def _grow(self, var: int) -> None:
        """Extend the per-variable array to ``var``, allocating it."""
        grow = var + 1 - len(self.values)
        if grow > 0:
            self.num_vars = max(self.num_vars, var)
            self.values.extend([0] * grow)

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        self._grow(self.num_vars)
        return self.num_vars

    def add_clause(self, literals: Iterable[Lit]) -> None:
        """Append one clause to the database.

        Tautologies are dropped; an empty clause makes the formula
        unsatisfiable.

        Raises:
            ValueError: if the clause contains the literal 0.
        """
        lits = list(literals)
        if 0 in lits:
            raise ValueError("0 is not a valid literal")
        self.num_clauses += 1
        if lits:
            self._grow(max(map(abs, lits)))
        if len(lits) == 2:
            if lits[0] == -lits[1]:
                return  # tautology
            if lits[0] == lits[1]:
                lits.pop()
        elif len(lits) > 2:
            unique = self._simplify_clause(lits)
            if unique is None:
                return  # tautology
            lits = unique
        if len(lits) > 1:
            # Store it and watch its first two literals.
            idx = len(self.clauses)
            self.clauses.append(lits)
            self.watches.setdefault(lits[0], []).append(idx)
            self.watches.setdefault(lits[1], []).append(idx)
        elif lits:
            self._units.append(lits[0])
        else:
            self._contradiction = True

    def add_unit(self, lit: Lit) -> None:
        """Append a unit clause."""
        self.add_clause((lit,))

    # ----- propagation ------------------------------------------------------

    def _propagate(self, queue_start: int) -> bool:
        """Propagate from trail position; return False on a conflict."""
        trail = self.trail
        values = self.values
        watches = self.watches
        clauses = self.clauses
        i = queue_start
        while i < len(trail):
            falsified = -trail[i]
            i += 1
            watch_list = watches.get(falsified)
            if not watch_list:
                continue
            kept: list[int] = []
            pending = iter(watch_list)
            for clause_idx in pending:
                clause = clauses[clause_idx]
                # Normalize: put the falsified watch at position 1.
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                first_value = values[first] if first > 0 else -values[-first]
                if first_value > 0:
                    kept.append(clause_idx)
                    continue
                # Find a replacement watch: any literal not false.
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if (values[lit] if lit > 0 else -values[-lit]) >= 0:
                        clause[1] = lit
                        clause[k] = falsified
                        watches.setdefault(lit, []).append(clause_idx)
                        break
                else:
                    # No replacement: clause is unit or conflicting.
                    kept.append(clause_idx)
                    if first_value:
                        kept.extend(pending)
                        watches[falsified] = kept
                        return False
                    values[abs(first)] = 1 if first > 0 else -1
                    trail.append(first)
            watches[falsified] = kept
        return True

    # ----- main loop -------------------------------------------------------

    def solve(self, max_conflicts: int | None = None) -> SatResult:
        """Run the DPLL loop, once.

        Args:
            max_conflicts: optional conflict budget; exceeding it returns
                ``satisfiable=None``.

        Raises:
            RuntimeError: if this solver has already been solved.
        """
        if self._solved:
            raise RuntimeError("a SatSolver solves once")
        self._solved = True
        stats = SatResult(satisfiable=None)
        if self._contradiction:
            stats.satisfiable = False
            return stats

        trail = self.trail
        # Trail position of each decision, deepest last.
        decided: list[int] = []
        values = self.values
        watches = self.watches
        order = sorted({abs(lit) for clause in self.clauses for lit in clause})
        cursor = 0
        queue_start = 0

        # Put the unit clauses on the trail, below every decision.
        for lit in self._units:
            var = abs(lit)
            if not values[var]:
                values[var] = 1 if lit > 0 else -1
                trail.append(lit)
            elif (values[var] > 0) != (lit > 0):
                stats.satisfiable = False
                break

        while stats.satisfiable is None:
            if not self._propagate(queue_start):
                stats.conflicts += 1
                # A decision is tried false first, so one whose literal
                # is positive has been flipped: both of its branches
                # are spent.
                while decided and trail[decided[-1]] > 0:
                    decided.pop()
                if not decided:
                    stats.satisfiable = False
                    break
                if (
                    max_conflicts is not None
                    and stats.conflicts > max_conflicts
                ):
                    break  # budget ran out: satisfiable stays None
                # Unwind to the deepest unflipped decision, flip it in
                # place and propagate the flip.
                queue_start = decided[-1]
                var = -trail[queue_start]
                stats.propagations += len(trail) - queue_start
                for lit in trail[queue_start:]:
                    values[abs(lit)] = 0
                del trail[queue_start:]
                values[var] = 1
                trail.append(var)
                cursor = bisect_left(order, var)
                continue

            # Decide the next unassigned variable false.  A decision
            # nothing watches cannot propagate, so the next one follows
            # without a propagation pass.
            while cursor < len(order):
                var = order[cursor]
                cursor += 1
                if values[var]:
                    continue
                queue_start = len(trail)
                decided.append(queue_start)
                stats.decisions += 1
                values[var] = -1
                trail.append(-var)
                if watches.get(var):
                    break
            else:
                # Every variable a stored clause names is assigned and
                # propagation found no conflict.  The others are false
                # unless a unit put them on the trail (module docstring).
                model = frozenset([lit for lit in trail if lit > 0])
                self._assert_model(model)
                stats.satisfiable = True
                stats.model = model

        # Literals put on the trail: what is on it now, plus what
        # backtracking took off on the way.
        stats.propagations += len(trail)
        return stats

    def _assert_model(self, model: frozenset[int]) -> None:
        """Defensive final check: the returned model satisfies every
        stored clause and every unit.  A violation is a solver bug, not
        user error."""
        for clause in self.clauses:
            if not any((lit > 0) == (abs(lit) in model) for lit in clause):
                raise AssertionError(
                    f"solver produced an invalid model; clause {clause} "
                    "unsatisfied"
                )
        for lit in self._units:
            if (lit > 0) != (abs(lit) in model):
                raise AssertionError(
                    f"solver produced an invalid model; unit {lit} violated"
                )


def solve(cnf: CNF) -> SatResult:
    """One-shot convenience wrapper: build a solver and run it."""
    return SatSolver(cnf).solve()
