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

The compiler (:meth:`ConstraintCompiler.assert_probe`) never encodes
Hit's and Collect's own matches: their conjunction is one packed
``(value, mask)`` *cube* of fixed header bits, and every other match
and rewrite term is folded against it before anything reaches the
solver.  A clause keeps only its *residual* literals (the bits the
cube leaves open); a rule that disagrees with the cube on a fixed bit
drops out; one with no residual bit matches every probe —
ahead of the probed rule that makes the probe impossible, below it
that rule ends the chain.  A probe's ``in_port`` joins the cube the
same way: the generator compiles one instance per allowed port, each
with all 16 ``in_port`` bits fixed, so the port domain is never
encoded.  The fixed bits themselves never enter the solver: decoding
overlays the cube on the model, the set of variables it sets true, into
one packed header that stays packed through normalization and the
outcome check.  Every probe is compiled this way, into a fresh solver:
the cold generator's and the per-switch context's alike.

``DiffOutcome`` is ``DiffPorts | DiffRewrite`` (§3.2–3.4):
``DiffPorts`` is decided during compilation (pure set logic on
forwarding sets, with the multicast-vs-ECMP probe-counting exception);
``DiffRewrite`` becomes per-bit terms per Table 4, OR-ed across the
common ports for multicast pairs and AND-ed when ECMP is involved.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
    shift, mask = HEADER.spans[name]
    return value << shift, mask << shift


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
    miss drops), or a lower rule every probe matches (the cube fold).
    ``If(g, c, c)`` is ``c`` whatever ``g`` is, so tail branches whose
    value *is* the else value are dropped, from the lowest priority
    up.  Two results need no encoding at all:

    * no branch, else ``True``: the chain constrains nothing;
    * no branch, else ``False``: wherever the probe lands without
      ``probed``, the outcome is the one ``probed`` gives — §3.5's
      indistinguishable rule, unmonitorable before any solve.

    ``diff_outcome`` is the compiler's ``DiffOutcome``.
    """
    else_value = diff_outcome(probed, else_rule)
    branches = [
        (rule, diff_outcome(probed, rule))
        for rule in sorted(lower_rules, key=lambda r: -r.priority)
    ]
    while branches and branches[-1][1] is else_value:
        branches.pop()
    return branches, else_value


class ConstraintCompiler:
    """Compiles Table 1 constraints for one probed rule into a CNF.

    Variables ``1 .. HEADER_BITS`` are the abstract header bits in layout
    order (variable ``i`` is bit ``i-1``); everything above is Tseitin.

    ``cube_value`` / ``cube_mask`` are the cube (module docstring),
    packed like :meth:`~repro.openflow.match.Match.packed`: empty until
    :meth:`fix` folds a match into it, as :meth:`assert_probe` does.

    Args:
        sink: formula destination; defaults to a fresh :class:`CNF`.
            Passing a :class:`~repro.sat.solver.SatSolver` loads the
            solver directly.
    """

    def __init__(self, sink: ClauseSink | None = None) -> None:
        self.cnf = sink if sink is not None else CNF(HEADER.total_bits)
        self.cube_value = 0
        self.cube_mask = 0

    # ----- bit-level helpers ---------------------------------------------

    def fix(self, value: int, mask: int) -> bool:
        """Fold "``P`` agrees with the packed ``value`` on every bit of
        ``mask``" (a :meth:`~repro.openflow.match.Match.packed` pair)
        into the cube, emitting nothing.

        Returns False when it contradicts a bit already fixed: no
        header satisfies both.
        """
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

    # ----- one probe's instance ---------------------------------------------

    def assert_probe(
        self,
        probed: Rule,
        avoid_rules: Sequence[Rule],
        lower_rules: Sequence[Rule],
        catch_match: Match,
        in_port: int | None = None,
    ) -> bool:
        """Table 1 for ``probed``, folded over the Hit ∧ Collect cube.

        ``avoid_rules`` are the overlapping rules of equal or higher
        priority, ``lower_rules`` the lower ones.  ``probed.match``,
        ``catch_match`` and, when given, the probe's ``in_port`` become
        the cube (:meth:`fix`) and are never encoded; a rule to avoid
        that the cube contradicts drops out, one it implies makes the
        probe impossible, and the others become one clause over their
        residual bits.  ``in_port`` is the one limited-domain field
        that cannot be fixed after solving (rules commonly match on it
        exactly), so a caller with a port domain compiles one instance
        per allowed port.  Returns False when the fold alone proves
        that no probe exists: a self-conflicting cube (a port the
        probed or catching match contradicts included), an avoided
        rule covering it, or a Distinguish chain folded to the constant
        false.  The formula then needs no solve.
        """
        if not (
            self.fix(*probed.match.packed())
            and self.fix(*catch_match.packed())
            and (
                in_port is None
                or self.fix(*_field_packed(FieldName.IN_PORT, in_port))
            )
        ):
            return False
        for rule in avoid_rules:
            literals = self._residual(*rule.match.packed())
            if literals is None:
                continue
            if not literals:
                return False
            self.cnf.add_clause([-lit for lit in literals])
        return self.assert_distinguish(probed, lower_rules)

    # ----- solution decoding ---------------------------------------------

    def decode_assignment(self, model: frozenset[int]) -> int:
        """The probe header a satisfying model (the variables it sets
        true) describes, packed like
        :meth:`~repro.openflow.match.Match.packed`: the model's header
        bits with the cube's fixed bits overlaid, once.  Header
        variable ``v`` is packed bit ``HEADER_BITS - v``; the Tseitin
        variables above the header are no part of the probe."""
        top = HEADER.total_bits
        packed = sum(1 << (top - var) for var in model if var <= top)
        return packed & ~self.cube_mask | self.cube_value
