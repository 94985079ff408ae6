"""Probe generation (paper §3 + §5).

Given the expected flow table of a switch, a rule to probe and the
catching-rule match, :class:`ProbeGenerator` produces a
:class:`ProbeResult` containing the abstract probe header, the crafted
raw packet, and the expected observable outcomes with/without the rule —
or an :class:`UnmonitorableReason` when no probe exists (§3.5).

Pipeline (Figure 2):

1. filter the table to rules overlapping the probed rule (§5.4 lemma),
2. compile Hit / Distinguish / Collect to CNF
   (:class:`~repro.core.constraints.ConstraintCompiler`),
3. run the CDCL solver,
4. decode the assignment into abstract header values,
5. normalize for wire validity (§5.2: spare values, conditional fields),
6. craft the raw packet and compute expected outcomes.

:func:`verify_probe` is the independent, simulation-based checker used by
the test suite: it re-derives Table 1 semantics by actually processing
the probe against the table with and without the probed rule.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.constraints import (
    ConstraintCompiler,
    DistinguishEncoding,
    IncrementalProbeEncoder,
)
from repro.obs import NULL_OBSERVER
from repro.openflow.fields import FieldName, HEADER
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.openflow.rule import Rule, RuleOutcome
from repro.openflow.table import FlowTable
from repro.openflow.tuplespace import TupleSpaceIndex
from repro.packets.craft import (
    CraftError,
    craft_packet,
    normalize_abstract_header,
)
from repro.sat.cnf import CNF
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import SatSolver


class UnmonitorableReason(str, enum.Enum):
    """Why no probe exists for a rule (§3.5)."""

    #: Higher-priority rules cover the probed rule completely (e.g. a
    #: backup rule shadowed by its primary), or the catching match is
    #: incompatible with the rule's match.
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
        header: normalized abstract header values of the probe.
        packet: crafted raw packet bytes.
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
    header: dict[FieldName, int] | None = None
    packet: bytes | None = None
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
        valid_in_ports: if given, the probe's in_port is constrained to
            this set (ports that physically exist / have an upstream
            injector).
        encoding: Distinguish-chain encoding (ablation knob).
        max_conflicts: CDCL conflict budget per probe.

    Only rules overlapping the probed rule enter the constraints (the
    §5.4 lemma), so candidates come from the table's overlap index.
    """

    catch_match: Match
    valid_in_ports: tuple[int, ...] | None = None
    encoding: DistinguishEncoding = DistinguishEncoding.ASSERTED_CHAIN
    max_conflicts: int | None = 100_000
    _reserved_fields: frozenset[FieldName] = field(init=False)

    def __post_init__(self) -> None:
        self._reserved_fields = frozenset(self.catch_match.fields)

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
        candidates = [
            r for r in table.overlapping(rule.match) if r.key() != rule.key()
        ]
        # The §3.2 no-rewriting-reserved-fields assumption only needs to
        # hold on rules this probe can interact with.
        self._check_reserved_fields([rule] + candidates)
        avoid, lower = _split_candidates(rule, candidates)

        # The compiler writes straight into the solver about to run.
        solver = SatSolver(CNF(HEADER.total_bits))
        compiler = ConstraintCompiler(encoding=self.encoding, sink=solver)
        # Hit
        compiler.assert_matches(rule.match)
        for other in avoid:
            compiler.assert_not_matches(other.match)
        # Collect
        compiler.assert_matches(self.catch_match)
        # Distinguish
        compiler.assert_distinguish(rule, lower)
        # Wire-level domain restriction for in_port, which unlike the
        # other limited-domain fields cannot be fixed after solving
        # (rules commonly match on it exactly).
        if self.valid_in_ports is not None:
            compiler.assert_value_in(FieldName.IN_PORT, self.valid_in_ports)

        sat = solver.solve(max_conflicts=self.max_conflicts)

        result = ProbeResult(
            rule=rule,
            ok=False,
            cnf_vars=solver.num_vars,
            cnf_clauses=solver.num_clauses,
            overlapping_rules=len(candidates),
            solver_conflicts=sat.conflicts,
        )
        if sat.satisfiable is None:
            result.reason = UnmonitorableReason.BUDGET_EXCEEDED
            return result
        if not sat.satisfiable:
            result.reason = UnmonitorableReason.UNSATISFIABLE
            return result
        return _decode_probe(
            result, rule, candidates, self.catch_match, sat.assignment
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


def _decode_probe(
    result: ProbeResult,
    rule: Rule,
    candidates: list[Rule],
    catch_match: Match,
    assignment: dict[int, bool],
) -> ProbeResult:
    """Shared tail of both engines: model -> wire probe -> outcomes.

    The §5.2 substitution lemma only needs the matches the probe can
    interact with: by the §5.4 non-overlap lemma, a probe that matches
    the probed rule can never match a non-overlapping rule regardless
    of what value the substituted field takes.
    """
    raw_values = ConstraintCompiler.decode_assignment(assignment)
    relevant = (
        [rule.match] + [r.match for r in candidates] + [catch_match]
    )
    try:
        header = normalize_abstract_header(raw_values, relevant)
        packet = craft_packet(header)
    except CraftError:
        result.reason = UnmonitorableReason.UNCRAFTABLE
        return result

    result.ok = True
    result.header = header
    result.packet = packet
    result.outcome_present, result.outcome_absent = _candidate_outcomes(
        rule, candidates, header
    )
    return result


def _candidate_outcomes(
    rule: Rule, candidates: list[Rule], header: dict[FieldName, int]
) -> tuple[RuleOutcome, RuleOutcome]:
    """Expected with/without outcomes using only the overlap candidates.

    Sound by the §5.4 lemma: the probe cannot match any rule outside the
    candidate set, so the highest-priority match is decided within it.
    """
    ordered = sorted(candidates + [rule], key=lambda r: -r.priority)
    present: RuleOutcome | None = None
    absent: RuleOutcome | None = None
    for candidate in ordered:
        if not candidate.match.matches(header):
            continue
        if present is None:
            present = RuleOutcome.from_rule(candidate, header)
        if absent is None and candidate.key() != rule.key():
            absent = RuleOutcome.from_rule(candidate, header)
        if present is not None and absent is not None:
            break
    if present is None:
        present = RuleOutcome.dropped()
    if absent is None:
        absent = RuleOutcome.dropped()
    return present, absent


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
    matched = table.lookup(header)
    if matched is None:
        return RuleOutcome.dropped()
    return RuleOutcome.from_rule(matched, header)


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
    hit = table.lookup(header)
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
# Incremental probe generation
# --------------------------------------------------------------------------


#: A context re-founds its engine once the encoder caches more guards
#: than this and than twice the live table ...
REBUILD_FLOOR = 1024
#: ... or once retired chains have left at least this many dead clauses
#: in its solver, and no fewer than it has live ones.
DEAD_CLAUSE_FLOOR = 2000


@dataclass
class ProbeGenContextStats:
    """Counters describing how much work the delta API avoided.

    ``probes_generated`` counts actual incremental SAT solves;
    ``cache_hits`` and ``revalidations`` are probes served without one.
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
    engine_rebuilds: int = 0


class ProbeGenContext:
    """Persistent per-switch probe-generation engine (the delta API).

    Wraps one switch's expected flow table plus a persistent
    :class:`~repro.sat.incremental.IncrementalSolver`, so that rule
    churn costs only its delta instead of a from-scratch re-encode:

    * :meth:`add_rule` / :meth:`remove_rule` / :meth:`apply_flowmod`
      update the table and *stale-mark* exactly the cached probes whose
      rule match intersects the change (everything else stays served
      from cache untouched);
    * :meth:`probe_for` first tries the cache, then — for stale entries
      — a cheap simulation-based *revalidation* against the new table,
      and only falls back to an (incremental, assumption-based) SAT
      solve when the cached probe genuinely died.

    Reusable constraint pieces (match guards, DiffOutcome literals, the
    catching match, learned lemmas, solver heuristics) persist inside
    the solver across calls; what is specific to one probe is assumed
    for one solve and leaves nothing behind — no per-rule solver state
    exists to keep in step with the table.  See
    :class:`~repro.core.constraints.IncrementalProbeEncoder`.

    The configuration (catch match, in_port domain, conflict budget)
    is borrowed from a :class:`ProbeGenerator` so the two paths are
    interchangeable; ``validate_result`` is an optional post-generation
    hook (the Monitor's observability demotion).
    """

    def __init__(
        self,
        generator: ProbeGenerator,
        table: FlowTable | None = None,
        validate_result: Callable[[ProbeResult], ProbeResult] | None = None,
    ) -> None:
        self.generator = generator
        self.table = (
            table if table is not None else FlowTable(check_overlap=False)
        )
        self.validate_result = validate_result
        self.stats = ProbeGenContextStats()
        self.obs = NULL_OBSERVER
        self._obs_node: object | None = None
        self._cache: dict[tuple[int, Match], ProbeResult] = {}
        self._stale: set[tuple[int, Match]] = set()
        #: Tuple-space index over the cached probes' rule matches, so a
        #: churn event stale-marks O(overlapping cache entries) instead
        #: of scanning the whole cache (mirrors ``_cache`` exactly).
        self._cache_index = TupleSpaceIndex()
        self._fresh_engine()

    def _fresh_engine(self) -> None:
        self.solver = IncrementalSolver(HEADER.total_bits)
        self.encoder = IncrementalProbeEncoder(
            self.solver,
            catch_match=self.generator.catch_match,
            valid_in_ports=self.generator.valid_in_ports,
        )

    def attach_obs(self, obs: object, node: object) -> None:
        """Publish solve timings through an observer.

        Called by the owning Monitor once observability is enabled; the
        default :data:`~repro.obs.NULL_OBSERVER` path never reaches
        here, so an unobserved context pays a single ``.enabled`` read
        per solve.
        """
        self.obs = obs
        self._obs_node = node
        if obs.enabled:  # type: ignore[attr-defined]
            self._h_solve = obs.metrics.histogram(  # type: ignore[attr-defined]
                "monocle_probegen_solve_seconds", node=repr(node)
            )

    def _maybe_rebuild(self) -> None:
        """The engine's one growth bound: start a fresh solver when
        what it holds is mostly dead.

        Two things die in it.  Match-guard and DiffOutcome definitions
        are permanent (that is what makes them reusable), so a workload
        that keeps inventing fresh matches accumulates encodings for
        rules long deleted; and every retired Distinguish chain leaves
        its clauses behind, satisfied forever.  Checked after deletes
        and after every solve.  Live guards re-encode lazily on the
        next probes; cached probe results (plain headers/outcomes, no
        solver references) stay valid.
        """
        solver = self.solver
        dead = solver.dead_clauses
        if self.encoder.cached_guards <= max(
            REBUILD_FLOOR, 2 * (len(self.table) + 1)
        ) and (dead < DEAD_CLAUSE_FLOOR or dead < solver.num_clauses):
            return
        self._fresh_engine()
        self.stats.engine_rebuilds += 1

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
            self._maybe_rebuild()

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
        if deleting and affected:
            self._maybe_rebuild()
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
        stale-marked hit, incremental SAT solve.
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

    def _candidates(self, rule: Rule) -> list[Rule]:
        return [
            r
            for r in self.table.overlapping(rule.match)
            if r.key() != rule.key()
        ]

    def _revalidate(
        self, rule: Rule, cached: ProbeResult
    ) -> ProbeResult | None:
        """Re-check a stale cached probe against the current table.

        A churned neighbour usually leaves an existing probe packet
        perfectly usable; replaying Table 1 over the overlap candidates
        costs microseconds where a SAT solve costs milliseconds.
        Returns a refreshed result, or None when the probe truly died.
        """
        if not cached.ok or cached.header is None:
            return None  # cached failures must be re-derived
        header = cached.header
        candidates = self._candidates(rule)
        # Same refusal as both generation paths: rules rewriting
        # probe-reserved fields make any probe unsound (§3.2).
        self.generator._check_reserved_fields([rule] + candidates)
        # Hit: the probed rule must still win for this header.
        ordered = sorted(candidates + [rule], key=lambda r: -r.priority)
        winner = next(
            (r for r in ordered if r.match.matches(header)), None
        )
        if winner is None or winner.key() != rule.key():
            return None
        present, absent = _candidate_outcomes(rule, candidates, header)
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
        """One incremental, assumption-based probe generation."""
        start = time.perf_counter()
        generator = self.generator
        candidates = self._candidates(rule)
        generator._check_reserved_fields([rule] + candidates)
        avoid, lower = _split_candidates(rule, candidates)

        with self.encoder.probe_assumptions(rule, lower, avoid) as assumed:
            sat = self.solver.solve(
                assumed, max_conflicts=generator.max_conflicts
            )
            # Sized as solved: this probe's own chain is still in it.
            result = ProbeResult(
                rule=rule,
                ok=False,
                cnf_vars=self.solver.num_vars,
                cnf_clauses=self.solver.num_clauses,
                overlapping_rules=len(candidates),
                solver_conflicts=sat.conflicts,
            )
        self._maybe_rebuild()
        self.stats.probes_generated += 1
        self.stats.solver_conflicts += sat.conflicts
        try:
            if sat.satisfiable is None:
                result.reason = UnmonitorableReason.BUDGET_EXCEEDED
                return result
            if not sat.satisfiable:
                result.reason = UnmonitorableReason.UNSATISFIABLE
                return result
            result = _decode_probe(
                result, rule, candidates, generator.catch_match,
                sat.assignment,
            )
            if result.ok:
                # Re-simulate Table 1 on the decoded model.  The
                # incremental solver runs with its internal model check
                # off; this independent (and cheaper) check replaces it
                # — a violation is a solver/encoder bug, not user error.
                header = result.header
                assert header is not None
                ordered = sorted(
                    candidates + [rule], key=lambda r: -r.priority
                )
                winner = next(
                    (r for r in ordered if r.match.matches(header)),
                    None,
                )
                if winner is None or winner.key() != rule.key():
                    raise AssertionError(
                        f"incremental probe for {rule!r} is processed "
                        f"by {winner!r} instead"
                    )
                if not generator.catch_match.matches(header):
                    raise AssertionError(
                        f"incremental probe for {rule!r} misses the "
                        "catching rule"
                    )
            return result
        finally:
            result.generation_time = time.perf_counter() - start
            self.stats.generation_seconds += result.generation_time
            if self.obs.enabled:
                self._h_solve.observe(result.generation_time)
