"""A CDCL SAT solver (the reproduction's PicoSAT stand-in).

Implements the standard conflict-driven clause learning loop:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* VSIDS-style exponential variable activity with decay (served from a
  lazy max-heap so branching stays cheap on large variable spaces),
* Luby-sequence restarts,
* phase saving.

The solver is deliberately self-contained (lists of ints, no numpy) so
its behaviour is easy to audit and to cross-check against the
brute-force reference the tests carry.

Beyond the one-shot `solve(cnf)` entry point, the solver supports
*incremental* use — the substrate of the per-switch probe-generation
context (:mod:`repro.sat.incremental`):

* clauses may be added between `solve` calls (:meth:`add_clause`),
* assumptions are asserted as their own decision levels (the MiniSat
  discipline), so every learned clause is implied by the clause
  database alone and can safely be kept across calls,
* the trail is rewound to level 0 after every call, leaving only
  formula-implied assignments behind.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.sat.cnf import CNF, Lit


@dataclass
class SatResult:
    """Outcome of a solve call.

    Attributes:
        satisfiable: True / False, or None if the budget ran out.
        assignment: var -> bool for a satisfying model (only when SAT).
        conflicts: number of conflicts encountered.
        decisions: number of branching decisions made.
        propagations: number of literals assigned by unit propagation.
        learned_clauses: number of clauses learned.
    """

    satisfiable: bool | None
    assignment: dict[int, bool] = field(default_factory=dict)
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
    :meth:`new_var` between `solve` calls.
    """

    _UNASSIGNED = 0
    _TRUE = 1
    _FALSE = -1

    def __init__(
        self,
        cnf: CNF,
        check_models: bool = True,
    ) -> None:
        #: Run the O(database) defensive model check on every SAT
        #: answer.  Incremental callers whose results are verified
        #: independently (probe generation re-simulates Table 1 on the
        #: decoded model) disable it: on a persistent clause database
        #: the scan costs more than the solve it double-checks.
        self.check_models = check_models

        self.num_vars = 0
        # Clause database: list of literal lists.  Original clauses and
        # learned clauses share it; learned ones are appended.
        self.clauses: list[list[int]] = []
        #: Indices into :attr:`clauses` holding learned (non-unit)
        #: lemmas; incremental compaction uses this to carry solver
        #: warmth across database rebuilds.
        self.learned_idx: list[int] = []
        self._contradiction = False
        #: Unit clauses not yet asserted on the trail (consumed by solve).
        self._pending_units: list[int] = []
        #: All unit clauses ever added (for the defensive model check).
        self._units: list[int] = []
        #: Number of currently assigned variables; lets the branching
        #: loop detect "model found" in O(1) instead of scanning the
        #: whole variable space once per solve.
        self._num_assigned = 0
        #: Bumped whenever the formula changes (clauses or variables);
        #: callers memoizing solve results key on it.
        self.generation = 0

        # Assignment state (index 0 unused).
        self.values: list[int] = [self._UNASSIGNED]
        self.levels: list[int] = [0]
        self.reasons: list[list[int] | None] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.phase: list[bool] = [False]

        # Watched literals: watch lit -> clause indices.
        self.watches: dict[int, list[int]] = {}

        # VSIDS activity, served by a lazy max-heap of (-act, var).
        self.activity: list[float] = [0.0]
        self.act_inc = 1.0
        self.act_decay = 0.95
        self._heap: list[tuple[float, int]] = []

        self.stats = SatResult(satisfiable=None)

        self.ensure_num_vars(cnf.num_vars)
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

    def _watch(self, lit: int, clause_idx: int) -> None:
        self.watches.setdefault(lit, []).append(clause_idx)

    # ----- incremental interface ----------------------------------------

    def ensure_num_vars(self, count: int) -> None:
        """Grow the variable space to at least ``count`` variables."""
        if self.num_vars < count:
            self.generation += 1
        while self.num_vars < count:
            self.num_vars += 1
            self.values.append(self._UNASSIGNED)
            self.levels.append(0)
            self.reasons.append(None)
            self.phase.append(False)
            self.activity.append(0.0)
            heapq.heappush(self._heap, (0.0, self.num_vars))

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.ensure_num_vars(self.num_vars + 1)
        return self.num_vars

    def learned_clauses(self) -> list[list[int]]:
        """The non-unit lemmas currently in the database."""
        return [self.clauses[idx] for idx in self.learned_idx]

    def clone(self) -> "SatSolver":
        """An independent copy sharing no mutable state.

        Legal only at decision level 0 (between ``solve`` calls, where
        the solver always rests).  Clause lists are copied one level
        deep because propagation reorders their literals in place;
        level-0 reasons are dropped (they are never resolved on — the
        first-UIP walk stops at the current decision level).
        """
        if self.trail_lim:
            raise RuntimeError("cannot clone mid-solve")
        dup = SatSolver.__new__(SatSolver)
        dup.check_models = self.check_models
        dup.num_vars = self.num_vars
        dup.clauses = [list(clause) for clause in self.clauses]
        dup.learned_idx = list(self.learned_idx)
        dup._contradiction = self._contradiction
        dup._pending_units = list(self._pending_units)
        dup._units = list(self._units)
        dup._num_assigned = self._num_assigned
        dup.generation = self.generation
        dup.values = list(self.values)
        dup.levels = list(self.levels)
        reasons: list[list[int] | None] = [None] * (self.num_vars + 1)
        dup.reasons = reasons
        dup.trail = list(self.trail)
        dup.trail_lim = []
        dup.phase = list(self.phase)
        dup.watches = {
            lit: list(indices) for lit, indices in self.watches.items()
        }
        dup.activity = list(self.activity)
        dup.act_inc = self.act_inc
        dup.act_decay = self.act_decay
        dup._heap = list(self._heap)
        dup.stats = SatResult(satisfiable=None)
        return dup

    def add_clause(self, clause: Iterable[Lit]) -> None:
        """Append one clause to the database.

        Legal at any time between `solve` calls (the solver is always at
        decision level 0 then).  Tautologies are dropped; an empty
        clause makes the formula permanently unsatisfiable.

        The clause is evaluated against the permanent level-0 trail
        left behind by earlier `solve` calls: literals already false
        there can never help and are removed, a literal already true
        makes the clause redundant.  Without this, a clause whose two
        watched literals were falsified in a *previous* call would
        never fire a watch event — `solve` does not re-propagate the
        old trail — and the solver would silently ignore it.
        """
        self.generation += 1
        unique = self._simplify_clause(list(clause))
        if unique is None:
            return  # tautology
        for lit in unique:
            self.ensure_num_vars(abs(lit))
        live: list[int] = []
        for lit in unique:
            value = self._lit_value(lit)
            if value == self._TRUE:
                return  # satisfied by a formula-implied fact
            if value == self._UNASSIGNED:
                live.append(lit)
        if not live:
            self._contradiction = True
        elif len(live) == 1:
            self._units.append(live[0])
            self._pending_units.append(live[0])
        else:
            self.clauses.append(live)
            idx = len(self.clauses) - 1
            self._watch(live[0], idx)
            self._watch(live[1], idx)

    # ----- assignment ------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        value = self.values[abs(lit)]
        if value == self._UNASSIGNED:
            return self._UNASSIGNED
        return value if lit > 0 else -value

    def _assign(self, lit: int, reason: list[int] | None) -> None:
        var = abs(lit)
        self.values[var] = self._TRUE if lit > 0 else self._FALSE
        self.levels[var] = self._decision_level()
        self.reasons[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)
        self._num_assigned += 1
        self.stats.propagations += 1

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # ----- propagation ------------------------------------------------------

    def _propagate(self, queue_start: int) -> list[int] | None:
        """Propagate from trail position; return conflicting clause or None."""
        i = queue_start
        while i < len(self.trail):
            lit = self.trail[i]
            i += 1
            falsified = -lit
            watch_list = self.watches.get(falsified)
            if not watch_list:
                continue
            new_watch_list: list[int] = []
            j = 0
            while j < len(watch_list):
                clause_idx = watch_list[j]
                j += 1
                clause = self.clauses[clause_idx]
                # Normalize: put the falsified watch at position 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == self._TRUE:
                    new_watch_list.append(clause_idx)
                    continue
                # Find a replacement watch.
                replaced = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != self._FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch(clause[1], clause_idx)
                        replaced = True
                        break
                if replaced:
                    continue
                # No replacement: clause is unit or conflicting.
                new_watch_list.append(clause_idx)
                if self._lit_value(first) == self._FALSE:
                    new_watch_list.extend(watch_list[j:])
                    self.watches[falsified] = new_watch_list
                    return clause
                self._assign(first, clause)
            self.watches[falsified] = new_watch_list
        return None

    # ----- conflict analysis ---------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis.

        Returns (learned_clause, backjump_level) with the asserting
        literal first in the learned clause.  Because assumptions are
        decisions, the learned clause is always a resolvent of database
        clauses — implied by the formula alone — so keeping it across
        `solve` calls with different assumptions is sound.
        """
        level = self._decision_level()
        seen = [False] * (self.num_vars + 1)
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
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.act_inc *= 1e-100
            self._rebuild_heap()
        else:
            heapq.heappush(self._heap, (-act, var))

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self.activity[v], v)
            for v in range(1, self.num_vars + 1)
            if self.values[v] == self._UNASSIGNED
        ]
        heapq.heapify(self._heap)

    def _backjump(self, level: int) -> None:
        while self._decision_level() > level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                lit = self.trail.pop()
                var = abs(lit)
                self.values[var] = self._UNASSIGNED
                self.reasons[var] = None
                self._num_assigned -= 1
                heapq.heappush(self._heap, (-self.activity[var], var))

    # ----- branching -----------------------------------------------------

    def _pick_branch(self) -> int:
        # The assigned counter makes "model found" O(1); without it the
        # loop ended every solve with an O(vars) confirmation scan.
        if self._num_assigned == self.num_vars:
            return 0
        while True:
            if not self._heap:
                # Defensive: the lazy heap lost an unassigned variable
                # (cannot happen while the push invariants hold).
                self._rebuild_heap()
                if not self._heap:
                    raise AssertionError(
                        "unassigned variables exist but heap is empty"
                    )
            neg_act, var = heapq.heappop(self._heap)
            if self.values[var] != self._UNASSIGNED:
                continue
            if -neg_act != self.activity[var]:
                continue  # stale entry; a fresher one exists
            return var if self.phase[var] else -var

    # ----- main loop -------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: int | None = None,
    ) -> SatResult:
        """Run the CDCL loop.

        Args:
            assumptions: literals asserted for this call only.  Each is
                given its own decision level (the MiniSat discipline) so
                learned clauses remain valid when the assumptions change
                on the next call.
            max_conflicts: optional conflict budget; exceeding it returns
                ``satisfiable=None``.

        The solver backtracks to decision level 0 before returning, so
        it can be reused: clauses added and lemmas learned in earlier
        calls are retained; assumption effects are not.
        """
        self.stats = SatResult(satisfiable=None)
        assumption_list = [lit for lit in assumptions]
        if self._contradiction:
            self.stats.satisfiable = False
            return self.stats
        self._backjump(0)

        # Flush unit clauses at level 0 (their effects are permanent).
        queue_start = len(self.trail)
        pending, self._pending_units = self._pending_units, []
        for lit in pending:
            value = self._lit_value(lit)
            if value == self._FALSE:
                self._contradiction = True
                self.stats.satisfiable = False
                return self.stats
            if value == self._UNASSIGNED:
                self._assign(lit, None)

        restarts = 0
        conflicts_until_restart = _RESTART_BASE * _luby(1)

        while True:
            conflict = self._propagate(queue_start)
            queue_start = len(self.trail)
            if conflict is not None:
                self.stats.conflicts += 1
                if self._decision_level() == 0:
                    # Conflict among formula-implied facts: permanent.
                    self._contradiction = True
                    self.stats.satisfiable = False
                    return self.stats
                if (
                    max_conflicts is not None
                    and self.stats.conflicts > max_conflicts
                ):
                    self.stats.satisfiable = None
                    self._backjump(0)
                    return self.stats
                learned, backjump = self._analyze(conflict)
                self._backjump(backjump)
                if len(learned) == 1:
                    value = self._lit_value(learned[0])
                    if value == self._FALSE:
                        # Unit lemma contradicts a level-0 fact.
                        self._contradiction = True
                        self.stats.satisfiable = False
                        self._backjump(0)
                        return self.stats
                    if value == self._UNASSIGNED:
                        self._assign(learned[0], None)
                else:
                    self.clauses.append(learned)
                    idx = len(self.clauses) - 1
                    self.learned_idx.append(idx)
                    self._watch(learned[0], idx)
                    self._watch(learned[1], idx)
                    self._assign(learned[0], learned)
                    self.stats.learned_clauses += 1
                self.act_inc /= self.act_decay
                # Resume propagation AT the literal just asserted — it has
                # not been propagated yet.
                queue_start = len(self.trail) - 1
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restarts += 1
                    conflicts_until_restart = _RESTART_BASE * _luby(
                        restarts + 1
                    )
                    self._backjump(0)
                    queue_start = 0
                continue

            # Assert the next assumption, one decision level each.
            level = self._decision_level()
            if level < len(assumption_list):
                lit = assumption_list[level]
                value = self._lit_value(lit)
                if value == self._FALSE:
                    # Incompatible with the formula or an earlier
                    # assumption: UNSAT *under these assumptions* only.
                    self.stats.satisfiable = False
                    self._backjump(0)
                    return self.stats
                self.trail_lim.append(len(self.trail))
                if value == self._UNASSIGNED:
                    self._assign(lit, None)
                    queue_start = len(self.trail) - 1
                # Already-true assumptions get a dummy level so that
                # assumption index == decision level stays invariant.
                continue

            branch = self._pick_branch()
            if branch == 0:
                assignment = {
                    var: self.values[var] == self._TRUE
                    for var in range(1, self.num_vars + 1)
                }
                if self.check_models:
                    self._assert_model(assignment)
                self.stats.satisfiable = True
                self.stats.assignment = assignment
                self._backjump(0)
                return self.stats
            self.trail_lim.append(len(self.trail))
            self.stats.decisions += 1
            self._assign(branch, None)

    def _assert_model(self, assignment: dict[int, bool]) -> None:
        """Defensive final check: the returned model satisfies every
        original clause.  A violation is a solver bug, not user error."""
        for clause in self.clauses:
            if not any(
                (lit > 0) == assignment[abs(lit)] for lit in clause
            ):
                raise AssertionError(
                    f"solver produced an invalid model; clause {clause} "
                    "unsatisfied"
                )
        for lit in self._units:
            if (lit > 0) != assignment[abs(lit)]:
                raise AssertionError(
                    f"solver produced an invalid model; unit {lit} violated"
                )


def solve(cnf: CNF, **kwargs) -> SatResult:
    """One-shot convenience wrapper: build a solver and run it."""
    return SatSolver(cnf, **kwargs).solve()
