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

Retired groups leave dead-but-satisfied clauses in the database; the
wrapper counts them (:attr:`IncrementalSolver.dead_clauses`) and keeps
no copy of any clause.  Bounding them is the client's business: the
probe engine (:class:`~repro.core.probegen.ProbeGenContext`) starts a
fresh solver once the dead clauses outnumber the live ones.

The wrapper is formula-agnostic; probe-specific encoding lives in
:mod:`repro.core.constraints`.  Its one client keeps match-guard and
DiffOutcome *definitions* permanent, states what is specific to a probe
as assumptions, and opens a group only for a Distinguish chain that
stays live once folded, retired right after the solve that assumed it:
retirement and variable recycling are that client's steady state where
a probed rule has a lower overlapping rule that could hide its absence,
and a table of disjoint rules, or of forwarding rules over drops, never
creates a group at all.
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


class IncrementalSolver:
    """A reusable SAT solver with clause groups and retraction.

    Args:
        num_vars: variables pre-allocated at construction (callers use
            ``1..num_vars`` directly; :meth:`new_var` allocates above).
    """

    def __init__(self, num_vars: int = 0) -> None:
        self._solver = SatSolver(CNF(num_vars), check_models=False)
        #: Live clauses (permanent + grouped), excluding learned lemmas.
        self.num_clauses = 0
        #: Clauses of retired groups: satisfied forever, still stored.
        self.dead_clauses = 0
        #: Live groups: selector -> clauses stored under it.
        self._groups: dict[int, int] = {}
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
        self.stats = IncrementalStats()

    # ----- variables ----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._solver.num_vars

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
        if group is not None:
            if group not in self._groups:
                raise ValueError(f"unknown or retired group {group}")
            lits.append(-group)
        # The core first: a malformed clause it rejects is not counted.
        self._solver.add_clause(lits)
        if group is not None:
            self._groups[group] += 1
        self.num_clauses += 1

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
        self._groups[selector] = 0
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
        self._free_vars.extend(self._group_vars.pop(selector, ()))
        self.num_clauses -= clauses
        self.dead_clauses += clauses
        self.stats.groups_retired += 1

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

    def health(self) -> dict[str, int]:
        """Point-in-time solver health for observability gauges.

        JSON-ready snapshot of the database's size; cheap enough to
        sample per metrics snapshot.
        """
        return {
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "dead_clauses": self.dead_clauses,
            "lemma_count": len(self._solver.learned_clauses()),
        }

    def __repr__(self) -> str:
        return (
            f"IncrementalSolver(vars={self.num_vars}, "
            f"live={self.num_clauses}, dead={self.dead_clauses}, "
            f"groups={len(self._groups)})"
        )
