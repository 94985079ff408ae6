"""A CDCL SAT solver (the reproduction's PicoSAT stand-in).

Implements the standard conflict-driven clause learning loop:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* VSIDS-style exponential variable activity with decay (served from a
  lazy max-heap so branching stays cheap on large variable spaces),
* Luby-sequence restarts,
* phase saving.

A solve costs what its formula mentions.  The per-variable arrays
reach only the highest variable a clause, a unit or :meth:`new_var`
names (``num_vars`` counts every id allocated).  The branching heap
holds the variables some *stored* clause names — a clause of two or
more live literals, learned lemmas included; a variable enters it the
first time such a clause is stored, not when it is allocated.  Search
ends when the heap runs dry: every candidate is then assigned,
propagation found no conflict, so every stored clause is satisfied.
The model is the set of variables the trail then holds true.  One
nothing stored names is never decided: a unit put it on the trail at
level 0, never unwound, or it was never assigned and is false, as a
decision in its saved phase would have assigned.  Heap entries are
lazy: an assigned variable's entry is dropped when popped and pushed
again when the variable is unwound.

The solver is deliberately self-contained (lists of ints, no numpy) so
its behaviour is easy to audit and to cross-check against the
brute-force reference the tests carry.

A solver is one-shot, the way the paper runs PicoSAT (§7): an encoder
writes one probe's formula straight into a fresh solver, which solves
it once; a second `solve` raises.  The model it returns is checked
against every clause.
"""

from __future__ import annotations

import heapq
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
        propagations: number of literals assigned by unit propagation.
        learned_clauses: number of clauses learned.
    """

    satisfiable: bool | None
    model: frozenset[int] = frozenset()
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_clauses: int = 0


#: Conflicts per unit of the Luby restart sequence.
_RESTART_BASE = 64


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


class SatSolver:
    """CDCL solver over a :class:`~repro.sat.cnf.CNF` formula.

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
        #: and tautological ones included; learned lemmas are not).
        self.num_clauses = 0
        # Clause database: list of literal lists.  Original clauses and
        # learned clauses share it; learned ones are appended.
        self.clauses: list[list[int]] = []
        self._contradiction = False
        self._solved = False
        #: Unit clauses, asserted at level 0 when the solve starts.
        self._units: list[int] = []

        # Assignment state (index 0 unused): 0 unassigned, 1 true,
        # -1 false.  An unassigned variable's reason is None.
        self.values: list[int] = [0]
        self.levels: list[int] = [0]
        self.reasons: list[list[int] | None] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.phase: list[bool] = [False]

        # Watched literals: watch lit -> clause indices.
        self.watches: dict[int, list[int]] = {}

        # VSIDS activity, served by a lazy max-heap of (-act, var) over
        # the variables flagged in _branchable (see the module docstring).
        self.activity: list[float] = [0.0]
        self.act_inc = 1.0
        self.act_decay = 0.95
        self._heap: list[tuple[float, int]] = []
        self._branchable: list[bool] = [False]

        self.stats = SatResult(satisfiable=None)

        for clause in cnf.clauses():
            self.add_clause(clause)

    # ----- setup helpers -------------------------------------------------

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

    def _store(self, clause: list[int]) -> None:
        """Put a clause of two or more literals in the database.

        Its first two literals are watched, and every variable it names
        becomes a branching candidate if it was not one already.
        """
        idx = len(self.clauses)
        self.clauses.append(clause)
        watches = self.watches
        watches.setdefault(clause[0], []).append(idx)
        watches.setdefault(clause[1], []).append(idx)
        branchable = self._branchable
        for lit in clause:
            var = abs(lit)
            if not branchable[var]:
                branchable[var] = True
                heapq.heappush(self._heap, (-self.activity[var], var))

    # ----- building the formula -----------------------------------------

    def _grow(self, var: int) -> None:
        """Extend the per-variable arrays to ``var``, allocating it."""
        grow = var + 1 - len(self.values)
        if grow <= 0:
            return
        self.num_vars = max(self.num_vars, var)
        self.values.extend([0] * grow)
        self.levels.extend([0] * grow)
        self.reasons.extend([None] * grow)
        self.phase.extend([False] * grow)
        self.activity.extend([0.0] * grow)
        self._branchable.extend([False] * grow)

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
            self._store(lits)
        elif lits:
            self._units.append(lits[0])
        else:
            self._contradiction = True

    def add_unit(self, lit: Lit) -> None:
        """Append a unit clause."""
        self.add_clause((lit,))

    # ----- propagation ------------------------------------------------------

    def _propagate(self, queue_start: int) -> list[int] | None:
        """Propagate from trail position; return conflicting clause or None."""
        trail = self.trail
        values = self.values
        levels = self.levels
        reasons = self.reasons
        phase = self.phase
        watches = self.watches
        clauses = self.clauses
        level = len(self.trail_lim)
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
                        return clause
                    var = abs(first)
                    values[var] = 1 if first > 0 else -1
                    levels[var] = level
                    reasons[var] = clause
                    phase[var] = first > 0
                    trail.append(first)
            watches[falsified] = kept
        return None

    # ----- conflict analysis ---------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis.

        Returns (learned_clause, backjump_level) with the asserting
        literal first in the learned clause, a resolvent of database
        clauses: implied by the formula alone.
        """
        level = len(self.trail_lim)
        seen = [False] * len(self.values)
        learned: list[int] = []
        counter = 0
        lit = 0
        reason: list[int] = conflict
        index = len(self.trail)

        while True:
            for reason_lit in reason:
                var = abs(reason_lit)
                if reason_lit == lit or seen[var]:
                    continue
                seen[var] = True
                self._bump(var)
                if self.levels[var] >= level:
                    counter += 1
                else:
                    learned.append(reason_lit)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                trail_lit = self.trail[index]
                if seen[abs(trail_lit)]:
                    break
            lit = trail_lit
            counter -= 1
            if counter == 0:
                break
            var_reason = self.reasons[abs(lit)]
            assert var_reason is not None, "decision reached before UIP"
            reason = var_reason
        learned.insert(0, -lit)

        if len(learned) == 1:
            return learned, 0
        backjump = max(self.levels[abs(lit)] for lit in learned[1:])
        # Put a literal from the backjump level in watch position 1.
        for i in range(1, len(learned)):
            if self.levels[abs(learned[i])] == backjump:
                learned[1], learned[i] = learned[i], learned[1]
                break
        return learned, backjump

    def _bump(self, var: int) -> None:
        act = self.activity[var] + self.act_inc
        self.activity[var] = act
        if act > 1e100:
            for v in range(1, len(self.activity)):
                self.activity[v] *= 1e-100
            self.act_inc *= 1e-100
            # In place: solve holds the heap in a local.
            self._heap[:] = [
                (-self.activity[v], v)
                for v in range(1, len(self.activity))
                if self._branchable[v] and not self.values[v]
            ]
            heapq.heapify(self._heap)
        else:
            heapq.heappush(self._heap, (-act, var))

    def _backjump(self, level: int) -> None:
        """Unwind every decision level above ``level`` in one pass."""
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        trail = self.trail
        values = self.values
        reasons = self.reasons
        activity = self.activity
        branchable = self._branchable
        heap = self._heap
        limit = trail_lim[level]
        self.stats.propagations += len(trail) - limit
        for lit in trail[limit:]:
            var = abs(lit)
            values[var] = 0
            reasons[var] = None
            if branchable[var]:
                heapq.heappush(heap, (-activity[var], var))
        del trail[limit:]
        del trail_lim[level:]

    # ----- main loop -------------------------------------------------------

    def solve(self, max_conflicts: int | None = None) -> SatResult:
        """Run the CDCL loop, once.

        Args:
            max_conflicts: optional conflict budget; exceeding it returns
                ``satisfiable=None``.

        Raises:
            RuntimeError: if this solver has already been solved.
        """
        if self._solved:
            raise RuntimeError("a SatSolver solves once")
        self._solved = True
        stats = self.stats = SatResult(satisfiable=None)
        if self._contradiction:
            stats.satisfiable = False
            return stats

        trail = self.trail
        trail_lim = self.trail_lim
        values = self.values
        levels = self.levels
        phase = self.phase
        watches = self.watches
        activity = self.activity
        heap = self._heap
        heappop = heapq.heappop
        queue_start = 0

        # Assert the unit clauses at level 0.
        for lit in self._units:
            var = abs(lit)
            if not values[var]:
                values[var] = 1 if lit > 0 else -1
                levels[var] = 0
                phase[var] = lit > 0
                trail.append(lit)
            elif (values[var] > 0) != (lit > 0):
                self._contradiction = True
                break

        restarts = 0
        conflicts_until_restart = _RESTART_BASE * _luby(1)

        while not self._contradiction:
            conflict = self._propagate(queue_start)
            if conflict is not None:
                stats.conflicts += 1
                if not trail_lim:
                    # Conflict among formula-implied facts.
                    self._contradiction = True
                    break
                if (
                    max_conflicts is not None
                    and stats.conflicts > max_conflicts
                ):
                    break  # budget ran out: satisfiable stays None
                learned, backjump = self._analyze(conflict)
                self._backjump(backjump)
                # The asserting literal sat on the conflict level, above
                # `backjump`, so it is unassigned now.
                lit = learned[0]
                var = abs(lit)
                values[var] = 1 if lit > 0 else -1
                levels[var] = backjump
                phase[var] = lit > 0
                trail.append(lit)
                if len(learned) > 1:
                    self.reasons[var] = learned
                    self._store(learned)
                    stats.learned_clauses += 1
                self.act_inc /= self.act_decay
                # Resume propagation AT the literal just asserted — it has
                # not been propagated yet.
                queue_start = len(trail) - 1
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restarts += 1
                    conflicts_until_restart = _RESTART_BASE * _luby(
                        restarts + 1
                    )
                    self._backjump(0)
                    queue_start = 0
                continue

            # Branch on the most active unassigned candidate, in its
            # saved phase.  A decision nothing watches cannot propagate,
            # so the next one follows without a propagation pass.
            while heap:
                neg_act, var = heappop(heap)
                if values[var] or -neg_act != activity[var]:
                    continue  # assigned, or stale: a fresher entry exists
                queue_start = len(trail)
                trail_lim.append(queue_start)
                stats.decisions += 1
                lit = var if phase[var] else -var
                values[var] = 1 if lit > 0 else -1
                levels[var] = len(trail_lim)
                trail.append(lit)
                if watches.get(-lit):
                    break
            else:
                # The heap ran dry: every variable a stored clause names
                # is assigned and propagation found no conflict.  The
                # others are false unless a unit put them on the trail
                # (module docstring).
                model = frozenset([lit for lit in trail if lit > 0])
                self._assert_model(model)
                stats.satisfiable = True
                stats.model = model
                break

        if self._contradiction:
            stats.satisfiable = False
        # Literals put on the trail: what is on it now, plus what
        # _backjump took off on the way.
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
