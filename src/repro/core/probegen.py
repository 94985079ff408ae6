"""Probe generation (paper §3 + §5).

Given the expected flow table of a switch, a rule to probe and the
catching-rule match, :class:`ProbeGenerator` produces a
:class:`ProbeResult` containing the abstract probe header (its raw
packet is crafted when read) and the expected observable outcomes
with/without the rule — or an :class:`UnmonitorableReason` when no
probe exists (§3.5).

Pipeline (Figure 2):

1. filter the table to rules overlapping the probed rule (§5.4 lemma),
2. compile Hit / Distinguish / Collect to CNF
   (:class:`~repro.core.constraints.ConstraintCompiler`), folded over
   the cube of bits Hit, Collect and the probe's ``in_port`` fix: what
   the fold decides is never encoded, and a probe it proves impossible
   is never solved (one instance per allowed port, ascending, until
   one admits a probe),
3. run the DPLL solver, sized by the variables the clauses name
   (the paper's CDCL is not needed: the fold leaves a residue that
   rarely meets a conflict),
4. decode the model (the variables it sets true) into the packed
   header (:meth:`~repro.openflow.match.Match.packed`'s bit layout),
5. normalize it for wire validity (§5.2: spare values, conditional
   fields; a header that survives normalization crafts),
6. re-check Table 1 and compute the expected outcomes on the packed
   header, which :attr:`ProbeResult.packed_header` keeps for the
   monitor to craft from; :attr:`ProbeResult.header` unpacks it into a
   dict only when read.

:func:`verify_probe` is the independent, simulation-based checker used by
the test suite: it re-derives Table 1 semantics by actually processing
the probe against the table with and without the probed rule.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.constraints import ConstraintCompiler
from repro.obs import Histogram
from repro.openflow.fields import FieldName, HEADER
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable, pack_header
from repro.openflow.tuplespace import TupleSpaceIndex
from repro.packets.craft import (
    CraftError,
    craft_packet,
    normalize_abstract_header,
)
from repro.sat.cnf import CNF
from repro.sat.solver import SatResult, SatSolver


class UnmonitorableReason(str, enum.Enum):
    """Why no probe exists for a rule (§3.5)."""

    #: No header satisfies Table 1: higher-priority rules cover the
    #: probed rule completely (e.g. a backup rule shadowed by its
    #: primary), the catching match is incompatible with the rule's
    #: match, or the Distinguish chain folds to the constant false —
    #: wherever the probe lands without the rule, the outcome is the
    #: same (§3.5's indistinguishable rule).  Generation reports all
    #: three without a solve when the Hit ∧ Collect cube fold decides
    #: them, which on the ACL tables is every miss.
    #: The Monitor also demotes a probe to this reason when its two
    #: outcomes differ only in what Monocle cannot observe (egress).
    UNSATISFIABLE = "unsatisfiable"
    #: A probe satisfying the bit constraints exists, but none of them
    #: can be turned into a wire-valid packet (limited-domain dead end).
    UNCRAFTABLE = "uncraftable"
    #: The solver exhausted its conflict budget (should not happen on
    #: realistic tables; reported separately for honesty).
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass
class ProbeResult:
    """Outcome of one probe-generation attempt.

    Attributes:
        rule: the probed rule.
        ok: True when a probe was produced.
        reason: set when ``ok`` is False.
        packed_header: the probe's normalized abstract header packed as
            one int (:meth:`~repro.openflow.match.Match.packed`'s
            layout): what the monitor crafts the probe from and reads
            its ``in_port`` from, and what a revalidation re-checks.  A
            ``replace`` copy carries it.
        outcome_present: expected observable outcome when the rule is in
            the data plane.
        outcome_absent: expected outcome when it is missing.
        generation_time: wall-clock seconds spent generating.
        cnf_vars / cnf_clauses: size of the SAT instance.
        overlapping_rules: how many rules survived the §5.4 filter.
        observations: ``Monitor.observations`` memo of the one Monitor
            this result is served to.  ``init=False``, so a ``replace``
            copy (revalidated outcomes) starts without it.
    """

    rule: Rule
    ok: bool
    reason: UnmonitorableReason | None = None
    packed_header: int | None = None
    outcome_present: RuleOutcome | None = None
    outcome_absent: RuleOutcome | None = None
    generation_time: float = 0.0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    overlapping_rules: int = 0
    solver_conflicts: int = 0
    observations: tuple[frozenset, frozenset] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def header(self) -> dict[FieldName, int] | None:
        """Every field of the probe's header, unpacked when read (None
        without a probe): the dict form reports and verify_probe use."""
        header = self.packed_header
        return None if header is None else HEADER.unpack(header)

    @property
    def packet(self) -> bytes | None:
        """The probe's raw bytes, crafted when read (None without a
        probe).  Generation crafts nothing: normalization already
        decided the header crafts, and the monitor crafts its own
        bytes, with the probe metadata, at launch."""
        header = self.packed_header
        return None if header is None else craft_packet(header)

    def expects_return(self) -> bool:
        """Will the probe come back to Monocle when the rule is healthy?

        False for drop rules (negative probing, §3.3).
        """
        assert self.outcome_present is not None
        return not self.outcome_present.is_drop()


@dataclass
class ProbeGenerator:
    """Generates probes for rules of one switch's flow table.

    Attributes:
        catch_match: match of the downstream catching rule the probe
            must satisfy (Collect constraint).  The reserved fields it
            pins must not be rewritten by table rules — validated at
            compile time.
        valid_in_ports: if given, the probe's in_port is one of these
            (ports that physically exist / have an upstream injector).
            They are tried one at a time in ascending order, each
            folded into the cube as one instance; the first that
            admits a probe gives it, so the probe is the one a single
            instance over the whole domain would have had as its
            smallest model.  ``cnf_vars`` / ``cnf_clauses`` are those
            of the last port tried.  At least one port (None: any).
        max_conflicts: conflict budget per probe, shared by the ports
            tried (the DPLL solver's search is exponential in the
            worst case; this bounds it): each solve gets what the
            earlier ones left, and ``solver_conflicts`` is their sum.

    Only rules overlapping the probed rule enter the constraints (the
    §5.4 lemma), so candidates come from the table's overlap index.
    Each generation is cold: a fresh solver that sees only what the
    Hit ∧ Collect cube fold leaves undecided, and no solve at all for
    a probe the fold proves impossible
    (:meth:`~repro.core.constraints.ConstraintCompiler.assert_probe`).
    A :class:`ProbeGenContext` generates through it too.
    """

    catch_match: Match
    valid_in_ports: tuple[int, ...] | None = None
    max_conflicts: int | None = 100_000
    _reserved_fields: frozenset[FieldName] = field(init=False)
    _in_ports: tuple[int | None, ...] = field(init=False)

    def __post_init__(self) -> None:
        self._reserved_fields = frozenset(self.catch_match.fields)
        if self.valid_in_ports is None:
            self._in_ports = (None,)
        elif self.valid_in_ports:
            self._in_ports = tuple(sorted(set(self.valid_in_ports)))
        else:
            raise ValueError("valid_in_ports names no port")

    # ----- public API -----------------------------------------------------

    def generate(self, table: FlowTable, rule: Rule) -> ProbeResult:
        """Generate a probe for ``rule``, assumed present in ``table``.

        ``table`` is the *expected* table (control-plane view); the rule
        itself must be part of it so priority relations are well defined.
        """
        start = time.perf_counter()
        result = self._generate(table, rule)
        result.generation_time = time.perf_counter() - start
        return result

    def _generate(self, table: FlowTable, rule: Rule) -> ProbeResult:
        candidates = _candidates(table, rule)
        # The §3.2 no-rewriting-reserved-fields assumption only needs to
        # hold on rules this probe can interact with.
        self._check_reserved_fields([rule] + candidates)
        avoid, lower = _split_candidates(rule, candidates)

        # One instance per port, its in_port folded into the cube.  The
        # compiler writes straight into the solver about to run; what
        # the fold decides never reaches it.
        sat, spent = _FOLDED_FALSE, 0
        budget = self.max_conflicts
        for port in self._in_ports:
            if budget is not None and spent > budget:
                # An UNSAT proof may spend one conflict past its budget.
                sat = SatResult(satisfiable=None)
                break
            solver = SatSolver(CNF(HEADER.total_bits))
            compiler = ConstraintCompiler(sink=solver)
            if not compiler.assert_probe(
                rule, avoid, lower, self.catch_match, port
            ):
                continue
            sat = solver.solve(
                max_conflicts=None if budget is None else budget - spent
            )
            spent += sat.conflicts
            if sat.satisfiable is not False:
                break  # a probe, or the budget is spent
        return _conclude(
            rule, candidates, self.catch_match, sat, spent, compiler,
            solver.num_vars, solver.num_clauses,
        )

    # ----- validation ------------------------------------------------------

    def _check_reserved_fields(self, rules) -> None:
        """Reject rules that rewrite the probe-reserved fields.

        §3.2 lists two failure modes if this assumption is violated; the
        generator refuses rather than producing unsound probes.
        """
        for rule in rules:
            rewritten = rule.actions.rewritten_fields()
            bad = rewritten & self._reserved_fields
            if bad:
                raise ValueError(
                    f"rule {rule!r} rewrites probe-reserved field(s) "
                    f"{sorted(f.value for f in bad)}"
                )


def _candidates(table: FlowTable, rule: Rule) -> list[Rule]:
    """The rules of ``table`` other than ``rule`` that overlap it."""
    return [r for r in table.overlapping(rule.match) if r.key() != rule.key()]


def _split_candidates(
    rule: Rule, candidates: list[Rule]
) -> tuple[list[Rule], list[Rule]]:
    """(rules the probe must avoid, rules that take it once ``rule`` is gone).

    An overlapping rule of *equal* priority is one to avoid.  Which of
    two tied rules a switch applies is undefined (paper footnote 1;
    :meth:`FlowTable.lookup` goes by install order), so the only probe
    that is sound either way matches just one of them — and a rule no
    packet reaches without also matching a tied one is reported
    UNSATISFIABLE instead of being probed on a guess.
    """
    avoid = [r for r in candidates if r.priority >= rule.priority]
    lower = [r for r in candidates if r.priority < rule.priority]
    return avoid, lower


#: The verdict on a probe the cube fold proves impossible: no probe
#: exists, and no solve ran to say so.
_FOLDED_FALSE = SatResult(satisfiable=False)


def _conclude(
    rule: Rule,
    candidates: list[Rule],
    catch_match: Match,
    sat: SatResult,
    conflicts: int,
    compiler: ConstraintCompiler,
    cnf_vars: int,
    cnf_clauses: int,
) -> ProbeResult:
    """Verdict -> reason, or model -> normalized header -> outcomes
    (``compiler`` decodes the model; ``conflicts`` is what every solve
    of the probe met).

    The §5.2 substitution lemma only needs the matches the probe can
    interact with: by the §5.4 non-overlap lemma, a probe that matches
    the probed rule can never match a non-overlapping rule regardless
    of what value the substituted field takes.
    """
    result = ProbeResult(
        rule=rule,
        ok=False,
        cnf_vars=cnf_vars,
        cnf_clauses=cnf_clauses,
        overlapping_rules=len(candidates),
        solver_conflicts=conflicts,
    )
    if sat.satisfiable is None:
        result.reason = UnmonitorableReason.BUDGET_EXCEEDED
        return result
    if not sat.satisfiable:
        result.reason = UnmonitorableReason.UNSATISFIABLE
        return result
    relevant = (
        [rule.match] + [r.match for r in candidates] + [catch_match]
    )
    try:
        header = normalize_abstract_header(
            compiler.decode_assignment(sat.model), relevant
        )
    except CraftError:
        result.reason = UnmonitorableReason.UNCRAFTABLE
        return result

    # Re-simulate Table 1 on the decoded probe: independent of the
    # encoding, so a violation is a solver or encoder bug, not user
    # error.
    outcomes = _hit_outcomes(rule, candidates, header)
    if outcomes is None:
        raise AssertionError(
            f"probe for {rule!r} is processed by another rule"
        )
    value, mask = catch_match.packed()
    if (header ^ value) & mask:
        raise AssertionError(
            f"probe for {rule!r} misses the catching rule"
        )
    if not outcomes[0].distinguishable_from(outcomes[1]):
        raise AssertionError(
            f"probe for {rule!r} cannot tell the rule's absence"
        )
    result.ok = True
    result.packed_header = header
    result.outcome_present, result.outcome_absent = outcomes
    return result


def _hit_outcomes(
    rule: Rule, candidates: list[Rule], header: int
) -> tuple[RuleOutcome, RuleOutcome] | None:
    """Expected with/without outcomes of the packed ``header``, or None
    when ``rule`` does not take it (Hit fails).

    Only the overlap candidates are scanned.  Sound by the §5.4 lemma:
    the probe cannot match any rule outside the candidate set, so the
    highest-priority match is decided within it.  The candidates are in
    table order, so the first one that matches decides: ahead of
    ``rule`` when its priority is not lower (a tie fails Hit too), else
    the rule that takes the probe once ``rule`` is gone.
    """
    value, mask = rule.match.packed()
    if (header ^ value) & mask:
        return None
    absent = RuleOutcome.dropped()
    for other in candidates:
        value, mask = other.match.packed()
        if not (header ^ value) & mask:
            if other.priority >= rule.priority:
                return None
            absent = RuleOutcome.from_rule(other, header)
            break
    return RuleOutcome.from_rule(rule, header), absent


def expected_outcomes(
    table: FlowTable, rule: Rule, header: dict[FieldName, int]
) -> tuple[RuleOutcome, RuleOutcome]:
    """Expected outcome of the probe with/without the probed rule.

    ECMP uncertainty is preserved (the returned outcomes keep the ecmp
    flag so the monitor accepts any of the possible ports).
    """
    present = full_outcome(table, header)
    without = table.copy()
    without.remove(rule)
    absent = full_outcome(without, header)
    return present, absent


def full_outcome(
    table: FlowTable, header: dict[FieldName, int]
) -> RuleOutcome:
    """Outcome of processing ``header``, keeping ECMP alternatives."""
    packed = pack_header(header)
    matched = table.lookup(packed)
    if matched is None:
        return RuleOutcome.dropped()
    return RuleOutcome.from_rule(matched, packed)


def verify_probe(
    table: FlowTable,
    rule: Rule,
    header: dict[FieldName, int],
    catch_match: Match,
) -> tuple[bool, str]:
    """Independent, simulation-based check of Table 1.

    Returns ``(valid, explanation)``.  Used by tests and by paranoid
    callers; the generator's constraints should make this always pass
    for generated probes.
    """
    hit = table.lookup(pack_header(header))
    if hit is None or hit.key() != rule.key():
        return False, f"probe is processed by {hit!r}, not the probed rule"

    if not catch_match.matches(header):
        return False, "probe does not match the catching rule"

    present, absent = expected_outcomes(table, rule, header)
    if not present.distinguishable_from(absent):
        return False, (
            f"outcomes are not distinguishable: present={present}, "
            f"absent={absent}"
        )
    return True, "ok"


# --------------------------------------------------------------------------
# Per-switch probe generation
# --------------------------------------------------------------------------


@dataclass
class ProbeGenContextStats:
    """Counters describing how much work the delta API avoided.

    ``probes_generated`` counts generations: one SAT solve each, save
    a probe the Hit ∧ Collect cube fold proves impossible, which is
    generated (UNSATISFIABLE) without one.  ``cache_hits`` and
    ``revalidations`` are probes served from earlier generations.
    """

    probes_generated: int = 0
    cache_hits: int = 0
    revalidations: int = 0
    invalidations: int = 0
    rules_added: int = 0
    rules_modified: int = 0
    rules_removed: int = 0
    solver_conflicts: int = 0
    generation_seconds: float = 0.0


class ProbeGenContext:
    """Per-switch probe generation behind a cache (the delta API).

    Wraps one switch's expected flow table, so that rule churn costs
    only the probes it really breaks:

    * :meth:`add_rule` / :meth:`remove_rule` / :meth:`apply_flowmod`
      update the table and *stale-mark* exactly the cached probes whose
      rule match intersects the change (everything else stays served
      from cache untouched);
    * :meth:`probe_for` first tries the cache, then — for stale entries
      — a cheap simulation-based *revalidation* against the new table,
      and only falls back to generating the probe afresh when the
      cached one genuinely died.

    A generation is the borrowed :class:`ProbeGenerator`'s own: one
    fresh, one-shot solve of what the Hit ∧ Collect cube fold leaves
    undecided, and no solver state kept between probes.  The generator
    also supplies the configuration (catch match, in_port domain,
    conflict budget); ``validate_result`` is an optional
    post-generation hook the owner sets (the Monitor's observability
    demotion).
    """

    def __init__(
        self,
        generator: ProbeGenerator,
        table: FlowTable | None = None,
    ) -> None:
        self.generator = generator
        self.table = table if table is not None else FlowTable()
        self.validate_result: (
            Callable[[ProbeResult], ProbeResult] | None
        ) = None
        self.stats = ProbeGenContextStats()
        #: Solve-time distribution; the owning Monitor sets it only
        #: when observability is enabled, so an unobserved context pays
        #: a single ``is not None`` test per solve.
        self.solve_histogram: Histogram | None = None
        self._cache: dict[tuple[int, Match], ProbeResult] = {}
        self._stale: set[tuple[int, Match]] = set()
        #: Tuple-space index over the cached probes' rule matches, so a
        #: churn event stale-marks O(overlapping cache entries) instead
        #: of scanning the whole cache (mirrors ``_cache`` exactly).
        self._cache_index = TupleSpaceIndex()

    # ----- delta API ------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Install (or replace) a rule and invalidate what it touches."""
        self.table.install(rule)
        self.stats.rules_added += 1
        self._invalidate(rule.match)

    def remove_rule(self, rule: Rule) -> None:
        """Remove a rule (by key) and invalidate what it touched."""
        if self.table.remove(rule):
            self.stats.rules_removed += 1
            self._evict(rule.key())
            self._invalidate(rule.match)

    def apply_flowmod(self, mod: FlowMod) -> list[Rule]:
        """Apply FlowMod semantics to the table; returns affected rules.

        Invalidation is per *affected rule* — a non-strict DELETE whose
        broad match removes two rules only stale-marks probes
        intersecting those two rules, not everything under the match.
        """
        from repro.switches.switch import apply_flowmod  # local: avoid cycle

        deleting = mod.command.is_delete
        modifying = mod.command.is_modify
        # Distinguishes a real in-place MODIFY from the OF 1.0
        # modify-with-no-target fallback, which installs a new rule.
        had_key = self.table.get(mod.priority, mod.match) is not None
        affected = apply_flowmod(self.table, mod)
        for rule in affected:
            if deleting:
                self.stats.rules_removed += 1
                self._evict(rule.key())
            elif modifying and (
                rule.key() != (mod.priority, mod.match) or had_key
            ):
                self.stats.rules_modified += 1
            else:
                self.stats.rules_added += 1
            self._invalidate(rule.match)
        return affected

    def _evict(self, key: tuple[int, Match]) -> None:
        """Drop a removed rule's own cache entry outright.

        Stale-marking is for probes that may survive a neighbour's
        churn; a deleted rule's probe can never be asked for again
        under that key, and keeping it would grow the cache (and the
        per-change invalidation scan) with every rule ever churned.
        """
        self._cache.pop(key, None)
        self._stale.discard(key)
        self._cache_index.discard(key)

    def _invalidate(self, match: Match) -> None:
        """Stale-mark cached probes whose rule intersects ``match``.

        Served by the cache's tuple-space index: only the overlapping
        entries are visited, so per-churn invalidation cost tracks the
        overlap set, not the cache size.
        """
        value, mask = match.packed()
        stale = self._stale
        for key in self._cache_index.query(value, mask):
            if key not in stale:
                stale.add(key)
                self.stats.invalidations += 1

    # ----- probe generation ----------------------------------------------

    def probe_for(self, rule: Rule) -> ProbeResult:
        """A probe for ``rule`` in the current table.

        Service order: exact cache hit, cheap revalidation of a
        stale-marked hit, a fresh generation.
        """
        key = rule.key()
        cached = self._cache.get(key)
        if cached is not None and cached.rule == rule:
            if key not in self._stale:
                self.stats.cache_hits += 1
                return cached
            refreshed = self._revalidate(rule, cached)
            if refreshed is not None:
                self._cache[key] = refreshed
                self._stale.discard(key)
                self.stats.revalidations += 1
                return refreshed
        result = self._generate(rule)
        if result.ok and self.validate_result is not None:
            result = self.validate_result(result)
        self._cache[key] = result
        self._stale.discard(key)
        if key not in self._cache_index:
            # key == (priority, match): index the rule's packed match.
            self._cache_index.add(key, *rule.match.packed())
        return result

    def _revalidate(
        self, rule: Rule, cached: ProbeResult
    ) -> ProbeResult | None:
        """Re-check a stale cached probe against the current table.

        A churned neighbour usually leaves an existing probe packet
        perfectly usable; replaying Table 1 over the overlap candidates
        costs microseconds where a SAT solve costs milliseconds.
        Returns a refreshed result, or None when the probe truly died.
        """
        if not cached.ok or cached.packed_header is None:
            return None  # cached failures must be re-derived
        candidates = _candidates(self.table, rule)
        # Same refusal as generation: rules rewriting probe-reserved
        # fields make any probe unsound (§3.2).
        self.generator._check_reserved_fields([rule] + candidates)
        # Hit: the probed rule must still win for this header.
        outcomes = _hit_outcomes(rule, candidates, cached.packed_header)
        if outcomes is None:
            return None
        present, absent = outcomes
        if not present.distinguishable_from(absent):
            return None
        refreshed = replace(
            cached,
            outcome_present=present,
            outcome_absent=absent,
            overlapping_rules=len(candidates),
            generation_time=0.0,
        )
        if self.validate_result is not None:
            refreshed = self.validate_result(refreshed)
            if not refreshed.ok:
                return None
        return refreshed

    def _generate(self, rule: Rule) -> ProbeResult:
        """One generation, counted and timed."""
        result = self.generator.generate(self.table, rule)
        self.stats.probes_generated += 1
        self.stats.solver_conflicts += result.solver_conflicts
        self.stats.generation_seconds += result.generation_time
        if self.solve_histogram is not None:
            self.solve_histogram.observe(result.generation_time)
        return result
