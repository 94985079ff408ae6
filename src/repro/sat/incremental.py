"""Persistent SAT context: assumptions, clause groups, retraction.

The probe-generation hot path re-solves closely related formulas every
time a switch's flow table churns.  :class:`IncrementalSolver` wraps the
CDCL core (:class:`~repro.sat.solver.SatSolver`) with the three
facilities that make those solves share work:

* **assumption-based solving** — per-call literals that vanish after the
  call, leaving learned clauses behind (the core supports this natively;
  the wrapper only bookkeeps);
* **clause groups** — clauses tagged with a fresh *selector* variable
  ``s`` are stored as ``(c | -s)`` and only bind while ``s`` is assumed,
  so a caller activates a group by passing its selector as an
  assumption;
* **retraction** — retiring a group permanently asserts ``-s``, which
  satisfies (and thereby disables) every clause of the group, including
  any lemmas learned from them (they all carry ``-s``).  Selector
  variables are never reused.

Retired groups leave dead-but-satisfied clauses in the database; when
their number exceeds both an absolute floor and a multiple of the live
clause count, the wrapper rebuilds the core solver from the live clause
store (**compaction**), dropping dead clauses.  Learned lemmas that
mention no retired selector are implied by the surviving formula and
are carried across the rebuild, so compaction no longer costs the
solver its accumulated warmth.

The wrapper is formula-agnostic; probe-specific encoding lives in
:mod:`repro.core.constraints`.  Its one client keeps match-guard and
DiffOutcome *definitions* permanent, states what is specific to a probe
as assumptions, and opens a group only for a Distinguish chain, retired
right after the solve that assumed it: retirement, variable recycling
and compaction are that client's steady state on overlapping tables,
and a table of disjoint rules never creates a group at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sat.cnf import CNF, Lit
from repro.sat.solver import SatResult, SatSolver


@dataclass
class IncrementalStats:
    """Cumulative counters over the context's lifetime."""

    solves: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    groups_created: int = 0
    groups_retired: int = 0
    compactions: int = 0
    #: Lemmas carried across compactions (warmth retention).
    lemmas_retained: int = 0


class IncrementalSolver:
    """A reusable SAT solver with clause groups and retraction.

    Args:
        num_vars: variables pre-allocated at construction (callers use
            ``1..num_vars`` directly; :meth:`new_var` allocates above).
        compaction_floor: never compact below this many dead clauses.
        compaction_ratio: compact when dead clauses exceed this multiple
            of the live clause count.
    """

    def __init__(
        self,
        num_vars: int = 0,
        compaction_floor: int = 2000,
        compaction_ratio: float = 1.0,
    ) -> None:
        self.compaction_floor = compaction_floor
        self.compaction_ratio = compaction_ratio
        self._solver = SatSolver(CNF(num_vars), check_models=False)
        #: Permanent clauses (group None) for compaction rebuilds.
        self._permanent: list[list[Lit]] = []
        #: Live groups: selector -> clauses as stored (selector included).
        self._groups: dict[int, list[list[Lit]]] = {}
        #: Variables allocated on behalf of a live group (Tseitin
        #: auxiliaries of its transient clauses).
        self._group_vars: dict[int, list[int]] = {}
        #: Recycled variables.  A retired group's clauses — and every
        #: lemma learned from them, which necessarily carries the
        #: group's negated selector — are permanently satisfied, so the
        #: group's auxiliary variables end up mentioned only by
        #: satisfied clauses: they are unconstrained and safe to hand
        #: out again.  Recycling keeps the variable space (and with it
        #: per-solve assignment/propagation cost) bounded by the *live*
        #: formula instead of growing with every probe ever solved.
        self._free_vars: list[int] = []
        #: Selectors of retired groups.  Every lemma learned from a
        #: group's clauses carries the group's negated selector, so this
        #: set is exactly what compaction needs to tell transferable
        #: lemmas from dead ones.
        self._retired: set[int] = set()
        #: Lemmas carried over by earlier compactions (they live in the
        #: core solver as plain clauses, so they must be re-filtered and
        #: re-added explicitly on the next rebuild).
        self._kept_lemmas: list[list[Lit]] = []
        self._dead_clauses = 0
        self.stats = IncrementalStats()

    #: Upper bound on lemmas surviving a compaction; beyond this the
    #: oldest are dropped (a safety valve, not a tuning knob).
    MAX_KEPT_LEMMAS = 20_000

    # ----- variables ----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._solver.num_vars

    @property
    def num_clauses(self) -> int:
        """Live clauses (permanent + grouped), excluding learned lemmas."""
        return len(self._permanent) + sum(
            len(clauses) for clauses in self._groups.values()
        )

    def new_var(self, group: int | None = None) -> int:
        """Allocate an unconstrained variable.

        With ``group`` set, the variable is tied to that clause group
        and returns to the recycling pool when the group is retired.
        Recycled variables are preferred over growing the space.
        """
        if self._free_vars:
            var = self._free_vars.pop()
        else:
            var = self._solver.new_var()
        if group is not None:
            self._group_vars[group].append(var)
        return var

    # ----- clauses and groups -------------------------------------------

    def add_clause(
        self, literals: Iterable[Lit], group: int | None = None
    ) -> None:
        """Add a clause, optionally tagged with a group selector.

        Grouped clauses only bind while the selector is passed as an
        assumption to :meth:`solve`; permanent clauses always bind.
        """
        lits = list(literals)
        if group is None:
            store = self._permanent
        elif group in self._groups:
            store = self._groups[group]
            lits.append(-group)
        else:
            raise ValueError(f"unknown or retired group {group}")
        # The core first: it rejects a malformed clause, which must not
        # reach the store compaction rebuilds from either.
        self._solver.add_clause(lits)
        store.append(lits)

    def add_unit(self, lit: Lit, group: int | None = None) -> None:
        """Add a unit clause (grouped units become binary selectors)."""
        self.add_clause((lit,), group=group)

    def new_group(self) -> int:
        """Create a clause group; returns its selector variable.

        Activate the group by passing the selector as an assumption.
        Selectors never come from the recycling pool: retirement pins
        them false forever, so they are constrained, not free.
        """
        selector = self._solver.new_var()
        self._groups[selector] = []
        self._group_vars[selector] = []
        self.stats.groups_created += 1
        return selector

    def retire_group(self, selector: int) -> None:
        """Permanently retract a group's clauses.

        Asserts ``-selector`` so every clause of the group (and every
        lemma learned from them) is satisfied and can never bind again;
        the group's auxiliary variables join the recycling pool.
        """
        clauses = self._groups.pop(selector, None)
        if clauses is None:
            return  # already retired; idempotent
        self._solver.add_clause((-selector,))
        self._retired.add(selector)
        self._free_vars.extend(self._group_vars.pop(selector, ()))
        self._dead_clauses += len(clauses)
        self.stats.groups_retired += 1
        self._maybe_compact()

    # ----- solving --------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[Lit] = (),
        max_conflicts: int | None = None,
    ) -> SatResult:
        """Solve under per-call assumptions (group selectors included)."""
        result = self._solver.solve(
            assumptions=assumptions, max_conflicts=max_conflicts
        )
        self.stats.solves += 1
        self.stats.conflicts += result.conflicts
        self.stats.propagations += result.propagations
        self.stats.learned_clauses += result.learned_clauses
        return result

    # ----- compaction -----------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._dead_clauses < self.compaction_floor:
            return
        if self._dead_clauses < self.compaction_ratio * max(
            1, self.num_clauses
        ):
            return
        self.compact()

    def compact(self) -> None:
        """Rebuild the core solver from live clauses only.

        Drops dead (retired) clauses; variable numbering is preserved so
        cached literals stay valid.  Learned lemmas that mention no
        retired selector are *kept*: by the selector invariant (every
        lemma derived from a group's clauses carries the group's negated
        selector) such lemmas are resolvents of permanent and live-group
        clauses only, hence still implied — re-adding them preserves the
        solver's warmth through the rebuild.  Lemmas that do mention a
        retired selector are permanently satisfied and dropped (this is
        also what keeps recycled variables out: a retired group's
        auxiliaries only ever appear alongside its selector).
        """
        keep: list[list[Lit]] = []
        for lemma in self._kept_lemmas + self._solver.learned_clauses():
            if any(abs(lit) in self._retired for lit in lemma):
                continue
            keep.append(list(lemma))
        if len(keep) > self.MAX_KEPT_LEMMAS:
            keep = keep[-self.MAX_KEPT_LEMMAS :]
        solver = SatSolver(CNF(self.num_vars), check_models=False)
        for clause in self._permanent:
            solver.add_clause(clause)
        for clauses in self._groups.values():
            for clause in clauses:
                solver.add_clause(clause)
        for lemma in keep:
            solver.add_clause(lemma)
        self._kept_lemmas = keep
        self._solver = solver
        self._dead_clauses = 0
        self.stats.compactions += 1
        self.stats.lemmas_retained += len(keep)

    def lemma_count(self) -> int:
        """Learned lemmas currently held (a solver-warmth proxy).

        Counts the core solver's live learned clauses plus lemmas
        carried across earlier compactions (those were re-added to the
        core as plain clauses, so the two sets are disjoint).
        """
        return len(self._solver.learned_clauses()) + len(self._kept_lemmas)

    def health(self) -> dict[str, int]:
        """Point-in-time solver health for observability gauges.

        JSON-ready snapshot of the quantities that drive compaction;
        cheap enough to sample per metrics snapshot.
        """
        return {
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "dead_clauses": self._dead_clauses,
            "lemma_count": self.lemma_count(),
        }

    def __repr__(self) -> str:
        return (
            f"IncrementalSolver(vars={self.num_vars}, "
            f"live={self.num_clauses}, dead={self._dead_clauses}, "
            f"groups={len(self._groups)})"
        )
