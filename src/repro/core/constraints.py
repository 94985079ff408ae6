"""Compiling the paper's probe constraints (Table 1) to CNF.

The probe packet ``P`` is a vector of abstract header bits; SAT variable
``i+1`` holds bit ``i``.  Auxiliary (Tseitin) variables are allocated on
top.  Three constraints are compiled for a probed rule:

* **Hit** — ``Matches(P, Rprobed)``, and ``not Matches(P, R)`` for each
  higher-priority overlapping rule as one clause of negated bit
  literals.
* **Distinguish** — the priority-ordered if-then-else chain over
  lower-priority overlapping rules.  Branch guards are
  ``Matches(P, R_k)`` (Tseitin AND), branch values are
  ``DiffOutcome(P, Rprobed, R_k)``.  The chain is folded first
  (:func:`fold_distinguish`): a constant-true chain emits nothing, a
  constant-false one is §3.5's indistinguishable rule and needs no
  solve.  What is left is asserted with the linear prefix-variable
  construction (:func:`~repro.sat.encode.assert_if_chain`), which
  exploits that Monocle always asserts the chain true.
* **Collect** — ``Matches(P, Rcatch)``.

The cold engine (:meth:`ConstraintCompiler.assert_probe`) never encodes
Hit's and Collect's own matches: their conjunction is one packed
``(value, mask)`` *cube* of fixed header bits, and every other match,
rewrite term and domain option is folded against it before anything
reaches the solver.  A clause keeps only its *residual* literals (the
bits the cube leaves open); a rule that disagrees with the cube on a
fixed bit drops out; one with no residual bit matches every probe —
ahead of the probed rule that makes the probe impossible, below it
that rule ends the chain.  The fixed bits themselves never enter the
solver: decoding overlays the cube on the model.  The persistent
context engine (:class:`IncrementalProbeEncoder`) keeps an empty cube:
its Hit bits are per-solve assumptions over a shared solver.

``DiffOutcome`` is ``DiffPorts | DiffRewrite`` (§3.2–3.4):
``DiffPorts`` is decided during compilation (pure set logic on
forwarding sets, with the multicast-vs-ECMP probe-counting exception);
``DiffRewrite`` becomes per-bit terms per Table 4, OR-ed across the
common ports for multicast pairs and AND-ed when ECMP is involved.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

from repro.openflow.actions import OutcomeKind
from repro.openflow.fields import HEADER, FieldName
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.sat.cnf import CNF, Lit
from repro.sat.encode import (
    ClauseSink,
    assert_if_chain,
    clause_and,
    clause_or,
)
from repro.sat.incremental import IncrementalSolver


#: The SAT variables holding the abstract header, bit 0 first.
_HEADER_VARS = range(1, HEADER.total_bits + 1)


def _literals(value: int, mask: int) -> list[Lit]:
    """Literals whose conjunction is "``P`` agrees with the packed
    ``value`` on every bit of ``mask``", header bit 0 (variable 1)
    first.  Packed bit ``HEADER_BITS-1-i`` is header bit ``i``
    (:meth:`~repro.openflow.match.Match.packed`)."""
    literals = []
    top = HEADER.total_bits
    while mask:
        shift = mask.bit_length() - 1
        mask ^= 1 << shift
        literals.append(top - shift if value >> shift & 1 else shift - top)
    return literals


def _field_packed(name: FieldName, value: int) -> tuple[int, int]:
    """Packed ``(value, mask)`` of "field ``name`` equals ``value``"."""
    field = HEADER.field(name)
    shift = HEADER.total_bits - field.offset - field.width
    return value << shift, ((1 << field.width) - 1) << shift


def fold_distinguish(
    probed: Rule,
    lower_rules: Sequence[Rule],
    diff_outcome: Callable[[Rule, "Rule | None"], "bool | Lit"],
    else_rule: Rule | None = None,
) -> tuple[list[tuple[Rule, "bool | Lit"]], "bool | Lit"]:
    """The Distinguish chain for ``probed``, folded before it is encoded.

    Returns ``(branches, else_value)``: the ``(lower rule,
    DiffOutcome)`` branches of ``If(Matches(P, R_1), DiffOutcome(P,
    probed, R_1), ..., else)``, highest priority first, and the
    DiffOutcome of ``else_rule``, which takes what no listed lower rule
    matches: the table miss by default (always a ``bool``, since a
    miss drops), or a lower rule every probe matches (the cold
    engine's cube fold).  ``If(g, c, c)`` is ``c`` whatever ``g`` is,
    so tail branches whose value *is* the else value are dropped, from
    the lowest priority up.  Two results need no encoding at all:

    * no branch, else ``True``: the chain constrains nothing;
    * no branch, else ``False``: wherever the probe lands without
      ``probed``, the outcome is the one ``probed`` gives — §3.5's
      indistinguishable rule, unmonitorable before any solve.

    ``diff_outcome`` is the engine's ``DiffOutcome`` (the cold
    compiler's, or the persistent encoder's cached one).
    """
    else_value = diff_outcome(probed, else_rule)
    branches = [
        (rule, diff_outcome(probed, rule))
        for rule in sorted(lower_rules, key=lambda r: -r.priority)
    ]
    while branches and branches[-1][1] is else_value:
        branches.pop()
    return branches, else_value


class SolverSink:
    """Adapts an :class:`~repro.sat.incremental.IncrementalSolver` to
    the ``new_var``/``add_clause``/``add_unit`` surface the encode
    helpers and :class:`ConstraintCompiler` expect.

    With ``group`` set, every emitted clause lands in that clause group
    (transient, retractable); with ``group=None`` clauses are permanent.
    """

    __slots__ = ("solver", "group")

    def __init__(
        self, solver: IncrementalSolver, group: int | None = None
    ) -> None:
        self.solver = solver
        self.group = group

    def new_var(self) -> int:
        # Group-tied auxiliaries return to the solver's recycling pool
        # when the group is retired.
        return self.solver.new_var(self.group)

    def add_clause(self, literals) -> None:
        self.solver.add_clause(literals, group=self.group)

    def add_unit(self, lit: Lit) -> None:
        self.solver.add_unit(lit, group=self.group)

    @property
    def num_vars(self) -> int:
        return self.solver.num_vars

    @property
    def num_clauses(self) -> int:
        return self.solver.num_clauses


class ConstraintCompiler:
    """Compiles Table 1 constraints for one probed rule into a CNF.

    Variables ``1 .. HEADER_BITS`` are the abstract header bits in layout
    order (variable ``i`` is bit ``i-1``); everything above is Tseitin.

    ``cube_value`` / ``cube_mask`` are the cube (module docstring),
    packed like :meth:`~repro.openflow.match.Match.packed`: empty until
    :meth:`fix` folds a match into it, which only the cold engine's
    :meth:`assert_probe` does.

    Args:
        sink: formula destination; defaults to a fresh :class:`CNF`.
            Passing a :class:`~repro.sat.solver.SatSolver` loads the
            solver directly; a :class:`SolverSink` retargets every
            emitted clause at a persistent incremental solver instead.
    """

    def __init__(self, sink: ClauseSink | None = None) -> None:
        self.cnf = sink if sink is not None else CNF(HEADER.total_bits)
        self.cube_value = 0
        self.cube_mask = 0

    # ----- bit-level helpers ---------------------------------------------

    def match_literals(self, match: Match) -> list[Lit]:
        """Literals whose conjunction is ``Matches(P, match)`` (Table 3),
        in the match's field order; the cube is not consulted."""
        return [
            bit_index + 1 if required else -bit_index - 1
            for bit_index, required in match.bit_constraints()
        ]

    def assert_matches(self, match: Match) -> None:
        """Add ``Matches(P, match)`` as unit clauses."""
        for lit in self.match_literals(match):
            self.cnf.add_unit(lit)

    def matches_lit(self, match: Match) -> Lit:
        """Fresh literal equivalent to ``Matches(P, match)``."""
        return clause_and(self.cnf, self.match_literals(match))

    def fix(self, match: Match) -> bool:
        """Fold ``Matches(P, match)`` into the cube, emitting nothing.

        Returns False when ``match`` contradicts a bit already fixed:
        no header satisfies both.
        """
        value, mask = match.packed()
        if (value ^ self.cube_value) & mask & self.cube_mask:
            return False
        self.cube_value |= value
        self.cube_mask |= mask
        return True

    def _residual(self, value: int, mask: int) -> list[Lit] | None:
        """The literals of "``P`` agrees with ``value`` on ``mask``"
        that the cube leaves open, or None when the cube contradicts
        it (an empty list: the cube implies it)."""
        if (value ^ self.cube_value) & mask & self.cube_mask:
            return None
        return _literals(value, mask & ~self.cube_mask)

    def assert_value_in(self, name: FieldName, values: Sequence[int]) -> bool:
        """Constrain a field to a small domain (e.g. valid in_ports).

        Encoded as a Tseitin OR of per-value conjunctions, folded
        against the cube: a value the cube contradicts is no option,
        and one the cube implies satisfies the constraint outright.
        Returns False when no value is left (the empty clause then
        says so).
        """
        options = []
        for value in values:
            literals = self._residual(*_field_packed(name, value))
            if literals is None:
                continue
            if not literals:
                return True
            options.append(clause_and(self.cnf, literals))
        self.cnf.add_clause(options)
        return bool(options)

    # ----- DiffOutcome ------------------------------------------------------

    def diff_outcome(self, probed: Rule, other: Rule | None) -> bool | Lit:
        """``DiffOutcome(P, probed, other)``: bool if decidable now, else Lit.

        ``other=None`` denotes the table-miss pseudo-rule (a drop).
        """
        if other is None:
            # Table miss drops: distinguishable iff probed isn't a drop.
            return probed.outcome_kind() != OutcomeKind.DROP

        ports_differ = self._diff_ports(probed, other)
        if ports_differ:
            return True
        return self._diff_rewrite(probed, other)

    @staticmethod
    def _diff_ports(rule1: Rule, rule2: Rule) -> bool:
        """§3.4 DiffPorts over forwarding sets (drop/unicast are 0/1-sets)."""
        f1 = rule1.forwarding_set()
        f2 = rule2.forwarding_set()
        ecmp1 = rule1.actions.is_ecmp
        ecmp2 = rule2.actions.is_ecmp

        if not ecmp1 and not ecmp2:
            return f1 != f2
        if ecmp1 and ecmp2:
            return not (f1 & f2)
        # One multicast-like (deterministic) and one ECMP: location
        # distinguishes iff the deterministic rule can emit outside the
        # ECMP set; counting distinguishes when it emits != 1 packets.
        multi = f1 if not ecmp1 else f2
        ecmp_set = f2 if not ecmp1 else f1
        return bool(multi - ecmp_set) or len(multi) != 1

    def _diff_rewrite(self, rule1: Rule, rule2: Rule) -> bool | Lit:
        """§3.4 DiffRewrite restricted to the common forwarding ports."""
        f1 = rule1.forwarding_set()
        f2 = rule2.forwarding_set()
        common = f1 & f2
        if not common:
            # Drop rules land here (empty sets): rewrites are meaningless
            # (paper footnote 2), and DiffPorts already said "equal".
            return False
        any_ecmp = rule1.actions.is_ecmp or rule2.actions.is_ecmp

        per_port: list[bool | list[Lit]] = []
        for port in sorted(common):
            per_port.append(
                self._per_port_rewrite_terms(
                    rule1.actions.rewrites_on_port(port),
                    rule2.actions.rewrites_on_port(port),
                )
            )

        if not any_ecmp:
            # Both deterministic: EXISTS a common port with a difference.
            all_literals: list[Lit] = []
            for terms in per_port:
                if isinstance(terms, bool):
                    if terms:
                        return True
                    continue  # pragma: no cover - terms is never False
                all_literals.extend(terms)
            if not all_literals:
                return False
            return clause_or(self.cnf, all_literals)

        # ECMP involved: difference required on EVERY common port.
        port_lits: list[Lit] = []
        for terms in per_port:
            if isinstance(terms, bool):
                if terms:
                    continue
                return False  # pragma: no cover - terms is never False
            if not terms:
                return False
            port_lits.append(clause_or(self.cnf, terms))
        if not port_lits:
            return True  # every common port had a constant difference
        return clause_and(self.cnf, port_lits)

    def _per_port_rewrite_terms(
        self,
        rewrites1: dict[FieldName, int],
        rewrites2: dict[FieldName, int],
    ) -> bool | list[Lit]:
        """Table 4 bit terms for one port.

        Returns True when a constant difference exists (both rules pin
        the same bit to different values), otherwise the list of literals
        whose disjunction says "some bit is rewritten differently".
        """
        literals: list[Lit] = []
        for name in set(rewrites1) | set(rewrites2):
            in1 = name in rewrites1
            in2 = name in rewrites2
            if in1 and in2:
                if rewrites1[name] != rewrites2[name]:
                    return True
                continue  # identical rewrites: no difference from this field
            fixed = rewrites1[name] if in1 else rewrites2[name]
            # One rule pins the field, the other passes P through: the
            # outcomes differ iff P disagrees with the pinned value on
            # some bit (rows */0, */1, 0/*, 1/* of Table 4).  A bit
            # the cube fixes decides its term: a fixed disagreement is
            # a constant difference, a fixed agreement no term.
            agree = self._residual(*_field_packed(name, fixed))
            if agree is None:
                return True
            literals.extend(-lit for lit in agree)
        return literals

    # ----- Distinguish ------------------------------------------------------

    def assert_distinguish(
        self,
        probed: Rule,
        lower_rules: Sequence[Rule],
    ) -> bool:
        """Assert the Distinguish constraint, folded.

        Args:
            probed: the rule being probed.
            lower_rules: overlapping rules with priority strictly below
                ``probed``, in any order.

        Returns False when the chain folds to the constant false: the
        formula is then unsatisfiable (an empty clause says so), and a
        caller may skip its solve.

        Under the cube, a lower rule it contradicts is left out, and
        the first one it implies ends the chain as the else of
        :func:`fold_distinguish`.  Guards become Tseitin AND literals
        over the residual bits; the chain itself is the linear
        prefix-variable construction of
        :func:`~repro.sat.encode.assert_if_chain` — 2 short clauses
        per branch instead of the prefix-repetition encoding whose
        clause mass grows quadratically with chain length (the
        difference is minutes vs seconds on 1000-rule Distinguish
        chains).
        """
        live: list[Rule] = []
        guards: list[list[Lit]] = []
        else_rule: Rule | None = None
        for rule in sorted(lower_rules, key=lambda r: -r.priority):
            literals = self._residual(*rule.match.packed())
            if literals is None:
                continue
            if not literals:
                else_rule = rule
                break
            live.append(rule)
            guards.append(literals)
        chain, else_value = fold_distinguish(
            probed, live, self.diff_outcome, else_rule
        )
        # The fold keeps a prefix of ``live``: zip pairs each kept
        # branch with its guard.
        branches = [
            (clause_and(self.cnf, literals), value)
            for literals, (_, value) in zip(guards, chain)
        ]
        assert_if_chain(self.cnf, branches, else_value)
        return bool(chain) or else_value is not False

    # ----- the cold engine's instance ---------------------------------------

    def assert_probe(
        self,
        probed: Rule,
        avoid_rules: Sequence[Rule],
        lower_rules: Sequence[Rule],
        catch_match: Match,
        valid_in_ports: Sequence[int] | None = None,
    ) -> bool:
        """Table 1 for ``probed``, folded over the Hit ∧ Collect cube.

        ``avoid_rules`` are the overlapping rules of equal or higher
        priority, ``lower_rules`` the lower ones.  ``probed.match`` and
        ``catch_match`` become the cube (:meth:`fix`) and are never
        encoded; a rule to avoid that the cube contradicts drops out,
        one it implies makes the probe impossible, and the others
        become one clause over their residual bits.  Returns False when
        the fold alone proves that no probe exists: a self-conflicting
        cube, an avoided rule covering it, a Distinguish chain folded
        to the constant false, or no ``valid_in_ports`` value left.
        The formula then needs no solve.
        """
        if not (self.fix(probed.match) and self.fix(catch_match)):
            return False
        for rule in avoid_rules:
            literals = self._residual(*rule.match.packed())
            if literals is None:
                continue
            if not literals:
                return False
            self.cnf.add_clause([-lit for lit in literals])
        if not self.assert_distinguish(probed, lower_rules):
            return False
        # Wire-level domain restriction for in_port, which unlike the
        # other limited-domain fields cannot be fixed after solving
        # (rules commonly match on it exactly).
        return valid_in_ports is None or self.assert_value_in(
            FieldName.IN_PORT, valid_in_ports
        )

    # ----- solution decoding ---------------------------------------------

    def decode_assignment(
        self, assignment: dict[int, bool]
    ) -> dict[FieldName, int]:
        """Abstract header values from a satisfying assignment, the
        cube's fixed bits overlaid on it."""
        bits = "".join(
            ["1" if bit else "0" for bit in map(assignment.get, _HEADER_VARS)]
        )
        packed = int(bits, 2) & ~self.cube_mask | self.cube_value
        values = HEADER.unpack(packed)
        return {name: values[name] for name in HEADER.names()}


class IncrementalProbeEncoder:
    """Constraint emission over a *persistent* per-switch solver.

    Where :class:`ConstraintCompiler` rebuilds every formula from
    scratch, this encoder keeps the reusable parts of the probe
    constraints alive inside an :class:`~repro.sat.incremental.
    IncrementalSolver` across probes and across table churn:

    * **match guards** — the Tseitin literal ``m <-> Matches(P, match)``
      for each match, cached by :class:`~repro.openflow.match.Match`
      value.  Guard definitions never constrain the header variables on
      their own, so they are emitted permanently and survive rule
      deletion (a re-added or re-used match costs nothing).
    * **DiffOutcome literals** — per action-list pair, same reasoning.
    * the **catching match** and the ``in_port`` domain restriction,
      asserted permanently at construction (they apply to every probe).

    What is specific to one probe is *assumed*, not stored
    (:meth:`probe_assumptions`): the Hit bits, the negated guard of
    every rule the probe must avoid, and — only when the Distinguish
    chain survives :func:`fold_distinguish` — the selector of a
    transient clause group holding that chain over those permanent
    guards, retired as soon as the solve that assumed it returns.  A
    regenerated probe therefore adds no clause once its neighbours'
    guards exist, and no group outlives a solve.
    """

    def __init__(
        self,
        solver: IncrementalSolver,
        catch_match: Match,
        valid_in_ports: "tuple[int, ...] | None" = None,
    ) -> None:
        if solver.num_vars < HEADER.total_bits:
            raise ValueError(
                "incremental solver must pre-allocate the header bits"
            )
        self.solver = solver
        self.compiler = ConstraintCompiler(sink=SolverSink(solver))
        self._guards: dict[Match, Lit] = {}
        #: DiffOutcome cache keyed by the (probed, other) action lists.
        #: ActionList hashes by value (its actions tuple), so rules with
        #: equal behaviour share one cached DiffOutcome literal.
        self._diffs: dict[tuple, "bool | Lit"] = {}
        self.compiler.assert_matches(catch_match)
        if valid_in_ports is not None:
            self.compiler.assert_value_in(FieldName.IN_PORT, valid_in_ports)

    # ----- reusable pieces ------------------------------------------------

    def guard(self, match: Match) -> Lit:
        """The cached literal equivalent to ``Matches(P, match)``."""
        lit = self._guards.get(match)
        if lit is None:
            lit = self.compiler.matches_lit(match)
            self._guards[match] = lit
        return lit

    @property
    def cached_guards(self) -> int:
        return len(self._guards)

    def diff_outcome(self, probed: Rule, other: Rule | None) -> "bool | Lit":
        """Cached ``DiffOutcome(P, probed, other)`` (bool or literal)."""
        if other is None:
            return self.compiler.diff_outcome(probed, None)
        key = (probed.actions, other.actions)
        cached = self._diffs.get(key)
        if cached is None:
            cached = self.compiler.diff_outcome(probed, other)
            self._diffs[key] = cached
        return cached

    # ----- per-probe assumptions -------------------------------------------

    @contextlib.contextmanager
    def probe_assumptions(
        self,
        probed: Rule,
        lower_rules: Sequence[Rule],
        avoid_rules: Sequence[Rule],
    ) -> Iterator[list[Lit] | None]:
        """The literals a solve for ``probed`` assumes, for one ``with``.

        ``avoid_rules`` are the overlapping rules that would take the
        probe ahead of ``probed``, ``lower_rules`` the ones that decide
        its fate without it.  One decision level per literal costs less
        than storing them: nothing is added to the clause database
        unless the folded Distinguish chain has a branch left, and what
        the chain adds is retired on leaving the block — after a
        satisfiable, unsatisfiable or budget-exhausted solve, and when
        emission or the solve raises.  Yields None instead when the
        chain folds to the constant false: no probe exists, and there
        is nothing to solve.
        """
        # Hit: the probe matches the probed rule ...
        assumptions = self.compiler.match_literals(probed.match)
        # ... and none of the rules ahead of it.
        assumptions.extend(-self.guard(rule.match) for rule in avoid_rules)
        # Distinguish: the priority-ordered lower-overlap ITE chain.
        chain, else_value = fold_distinguish(
            probed, lower_rules, self.diff_outcome
        )
        if not chain:
            yield assumptions if else_value is True else None
            return
        branches = [(self.guard(rule.match), value) for rule, value in chain]
        group = self.solver.new_group()
        try:
            assert_if_chain(
                SolverSink(self.solver, group), branches, else_value
            )
            assumptions.append(group)
            yield assumptions
        finally:
            self.solver.retire_group(group)
