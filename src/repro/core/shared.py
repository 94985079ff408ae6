"""Cross-switch shared probe-generation contexts (fleet dedup).

Replicated configurations — the same ACL pushed to dozens of edge
switches — make the per-switch :class:`~repro.core.probegen.
ProbeGenContext` wasteful at fleet scale: N switches with identical
flow tables each warm up their own solver, learn the same lemmas and
solve the same probe instances.  This module dedupes them:

* :func:`table_fingerprint` — canonical, cookie-free hash of a flow
  table (priorities, matches, actions, in table order);
* :class:`SharedContextRegistry` — maps (generator config, table
  fingerprint) to one shared :class:`ProbeGenContext`; switches attach
  via :meth:`~SharedContextRegistry.acquire` and receive a
  :class:`SharedProbeGenContext` *handle*;
* **replicated-churn convergence** — each shared context keeps an
  operation log.  A handle applying the same operation the log already
  holds at its position simply advances (the table was already
  updated by the first replica); only genuinely *new* operations touch
  the shared table.  N switches receiving the same FlowMod wave stay
  deduped and pay one solver's work.
* **copy-on-churn forking** — a handle whose operations *diverge* from
  its replicas forks its own context.  The common case — one switch
  receives a private operation while its siblings stay put — costs
  exactly one *warm* fork: the diverging handle is at the log head, so
  it clones the shared state (:meth:`ProbeGenContext.fork` copies the
  table, probe cache, and the entire solver, making its post-fork
  probes byte-identical to an always-independent context's) and the
  shared log **rewinds** the private operations via per-op undo
  records, leaving the remaining replicas converged and still shared.
  Handles that diverge in ways a rewind cannot untangle (staggered
  multi-switch divergence) start cold from their own table — correct,
  without the shared solver's warmth.  Siblings are never affected by
  a fork either way.
* **soundness while behind** — a handle that has not yet applied
  operations the shared table already holds never exposes foreign
  state: reads serve the handle's own table (maintained through every
  operation), and probes fall back to from-scratch generation against
  it.  A mere read never forces a fork — an in-flight replicated wave
  re-converges for free; only persistent behind-ness resolves the
  divergence (rewind if possible, cold fork otherwise).

Per-switch identity is preserved across sharing: the shared table
holds the *first* replica's rule objects, so each handle overlays its
own rules (same priority/match/actions, its own cookies) onto returned
probe results — alarm attribution and FlowMod bookkeeping stay
per-switch correct.  Monitoring-level validation (observability
demotion) is also per-handle: the shared cache stores raw results and
every handle validates its own copy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable

from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenContextStats,
    ProbeGenerator,
    ProbeResult,
)
from repro.obs import NULL_OBSERVER
from repro.openflow.messages import FlowMod
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, table_fingerprint
from repro.sat.incremental import IncrementalSolver

__all__ = [
    "SharedContextRegistry",
    "SharedContextStats",
    "SharedProbeGenContext",
    "generator_key",
    "table_fingerprint",
]

#: Cookie-free value identity of a rule (fingerprints, op signatures).
RuleSig = tuple
#: One logged table operation, compared across replicas by value.
OpSig = tuple

#: ProbeGenContextStats fields describing probe-serving work; handles
#: mirror the shared context's deltas into their own stats so fleet
#: aggregation counts each solve exactly once (on the switch that
#: triggered it) while replicas count cache hits.
_SERVE_FIELDS = tuple(
    f.name
    for f in fields(ProbeGenContextStats)
    if f.name not in ("rules_added", "rules_modified", "rules_removed")
)


def _rule_sig(rule: Rule) -> RuleSig:
    return (rule.priority, rule.match, rule.actions)


def _tables_identical(table: Iterable[Rule], rules: Iterable[Rule]) -> bool:
    """Exact (order-sensitive) cookie-free rule-sequence identity.

    The fingerprint (:func:`~repro.openflow.table.table_fingerprint`,
    re-exported here) is a commutative multiset hash so tables can
    maintain it incrementally; within-priority insertion order — which
    probe generation *does* consume — is therefore not part of it.
    Every sharing decision double-checks a fingerprint hit with this
    sequence comparison, so two tables ever share state only when they
    iterate identically.
    """
    return [_rule_sig(r) for r in table] == [_rule_sig(r) for r in rules]


def generator_key(generator: ProbeGenerator) -> tuple:
    """Value identity of a probe generator's configuration.

    Two switches can share a context only when every knob that shapes
    the emitted constraints agrees: the catching match, the in_port
    domain, the encoding and the conflict budget.
    """
    return (
        generator.catch_match,
        generator.valid_in_ports,
        generator.encoding,
        generator.max_conflicts,
    )


@dataclass
class SharedContextStats:
    """Registry-level counters (threaded into fleet metrics)."""

    tables_fingerprinted: int = 0
    contexts_created: int = 0
    #: Switches that attached to an existing context instead of paying
    #: for their own (the fleet-dedup win).
    contexts_deduped: int = 0
    #: Copy-on-churn forks: switches whose tables diverged from their
    #: replicas and took an independent context.
    contexts_forked: int = 0
    #: Forks that could clone the shared solver state (handle at the
    #: log head) vs. cold rebuilds from snapshot + history.
    warm_forks: int = 0
    #: Private operations rolled back off a shared context after their
    #: author warm-forked away (keeps the remaining replicas shared).
    rewinds: int = 0
    #: Forked handles re-attached to a shared context after their
    #: tables became identical again (churn-quiescence re-dedup).
    contexts_remerged: int = 0
    #: Warm re-merges where the *forked* solver was the richer one
    #: (more learned lemmas) and replaced the shared entry's solver
    #: instead of being dropped.
    solvers_kept_on_remerge: int = 0
    #: Probe-cache entries adopted across re-merges (either direction).
    cache_entries_merged: int = 0
    #: Re-fingerprinting sweeps run (each is O(forked + entries) thanks
    #: to the tables' rolling fingerprints).
    rededupe_passes: int = 0


#: What one rewindable log step restores: for every table key the
#: operation touched, the rule that held the key before (None = key was
#: absent).
UndoInfo = list


def _undo_info(table: FlowTable, op: tuple[str, object]) -> UndoInfo:
    """Capture what ``op`` is about to overwrite in ``table``.

    FlowMod semantics are delegated to the one authoritative
    implementation (:func:`repro.switches.switch.apply_flowmod`, run
    against a throwaway copy) so rewind can never drift from what the
    shared context actually does.
    """
    kind, payload = op
    if kind in ("add", "remove"):
        key = payload.key()
        return [(key, table.get(*key))]
    from repro.switches.switch import apply_flowmod  # local: avoid cycle

    scratch = table.copy()
    affected = apply_flowmod(scratch, payload)
    return [(rule.key(), table.get(*rule.key())) for rule in affected]


class _SharedEntry:
    """One shared context plus the replica-convergence machinery."""

    __slots__ = ("context", "handles", "log", "base")

    def __init__(self, context: ProbeGenContext) -> None:
        self.context = context
        self.handles: list["SharedProbeGenContext"] = []
        #: (op signature, undo info) applied to the shared table since
        #: creation; index ``i`` in the log is position ``base + i``.
        self.log: list[tuple[OpSig, UndoInfo]] = []
        self.base = 0

    def head(self) -> int:
        return self.base + len(self.log)

    def rewind_to(self, position: int) -> None:
        """Roll the shared table back to log ``position``.

        Every rolled-back operation's undo record restores the exact
        rule objects that held each touched key (or removes keys the
        operation created); the context's own delta API keeps the probe
        cache consistent.  The solver is untouched — it never encodes
        the table permanently.
        """
        context = self.context
        while self.head() > position:
            _sig, undo = self.log.pop()
            for key, previous in reversed(undo):
                if previous is None:
                    current = context.table.get(*key)
                    if current is not None:
                        context.remove_rule(current)
                else:
                    context.add_rule(previous)

    def trim(self) -> None:
        """Drop log prefix every handle has already replayed."""
        if not self.handles or len(self.log) < 64:
            return
        floor = min(handle._log_pos for handle in self.handles)
        drop = floor - self.base
        if drop > 0:
            del self.log[:drop]
            self.base = floor


class SharedContextRegistry:
    """Fleet-wide dedup of probe-generation contexts.

    One registry per deployment.  ``context_factory`` exists for tests
    (it must be call-compatible with :class:`ProbeGenContext`).
    """

    def __init__(
        self,
        context_factory: Callable[..., ProbeGenContext] = ProbeGenContext,
    ) -> None:
        self._factory = context_factory
        #: (generator key, fingerprint) -> entries still in their
        #: pristine (no operations yet) state; only those are joinable,
        #: which is exactly the deployment-build pattern where all
        #: replicas acquire before any churn.  A *list* because the
        #: multiset fingerprint can collide for tables whose equal-
        #: priority rules were installed in different orders — each
        #: candidate is probed with the exact rule-sequence check.
        self._attachable: dict[tuple, list[_SharedEntry]] = {}
        self.entries: list[_SharedEntry] = []
        #: Handles that forked off (copy-on-churn); candidates for
        #: re-merging once their tables converge back (:meth:`rededupe`).
        self.forked: list["SharedProbeGenContext"] = []
        #: Total table operations applied through any handle; a caller
        #: sampling this between ticks gets a churn-quiescence signal.
        self.churn_ops = 0
        #: Invoked whenever a handle forks — the fleet deployment uses
        #: it to (re-)arm its re-dedupe timer only while there is
        #: something to re-merge.
        self.on_fork: Callable[[], None] | None = None
        self.stats = SharedContextStats()

    def acquire(
        self,
        generator: ProbeGenerator,
        rules: Iterable[Rule] = (),
        validate_result: "Callable[[ProbeResult], ProbeResult] | None" = None,
    ) -> "SharedProbeGenContext":
        """A probe-context handle for one switch.

        Switches presenting an identical (generator config, initial
        table) pair share one underlying context; others get their own.
        """
        initial = tuple(rules)
        key = (generator_key(generator), table_fingerprint(initial))
        self.stats.tables_fingerprinted += 1
        entry = next(
            (
                candidate
                for candidate in self._attachable.get(key, ())
                if not candidate.log
                and _tables_identical(candidate.context.table, initial)
            ),
            None,
        )
        if entry is not None:
            self.stats.contexts_deduped += 1
        else:
            table = FlowTable(initial, check_overlap=False)
            entry = _SharedEntry(self._factory(generator, table=table))
            self._attachable.setdefault(key, []).append(entry)
            self.entries.append(entry)
            self.stats.contexts_created += 1
        handle = SharedProbeGenContext(
            self, entry, generator, initial, validate_result
        )
        entry.handles.append(handle)
        return handle

    def _detach(
        self, entry: _SharedEntry, handle: "SharedProbeGenContext"
    ) -> None:
        entry.handles.remove(handle)
        if not entry.handles:
            self.entries.remove(entry)
            self._mark_dirty(entry)

    def _mark_dirty(self, entry: _SharedEntry) -> None:
        """An entry that saw operations can no longer be joined."""
        for key, candidates in list(self._attachable.items()):
            if entry in candidates:
                candidates.remove(entry)
                if not candidates:
                    del self._attachable[key]

    # ----- re-convergence after forks --------------------------------------

    def rededupe(self) -> int:
        """Re-merge forked handles whose tables converged back.

        A copy-on-churn fork is forever under the base machinery — even
        when the diverging operation is later reversed and the tables
        are identical again.  This sweep re-fingerprints every forked
        handle and live shared entry (O(1) each: the tables maintain
        rolling fingerprints) and re-attaches matches — first forked ->
        existing shared entry, then forked <-> forked pairs, where one
        handle's private context is *promoted* to a fresh shared entry
        the others join.  Every fingerprint hit is double-checked with
        an exact rule-sequence comparison before any state is shared.

        Intended to run on a churn-quiescence signal (see
        :attr:`churn_ops`; the fleet deployment wires a periodic tick).
        Returns the number of handles re-attached.
        """
        self.stats.rededupe_passes += 1
        if not self.forked:
            return 0
        merged = 0
        entry_by_key: dict[tuple, _SharedEntry] = {}
        for entry in self.entries:
            gkey = generator_key(entry.handles[0].generator)
            entry_by_key[(gkey, entry.context.table.fingerprint())] = entry

        def handle_key(handle: "SharedProbeGenContext") -> tuple:
            return (
                generator_key(handle.generator),
                handle._my_table.fingerprint(),
            )

        remaining: list[SharedProbeGenContext] = []
        for handle in self.forked:
            entry = entry_by_key.get(handle_key(handle))
            if entry is not None and _tables_identical(
                entry.context.table, handle._my_table
            ):
                handle._reattach(entry)
                merged += 1
            else:
                remaining.append(handle)

        # Forked handles matching each other: promote the first of a
        # group to a shared entry, attach the rest.
        groups: dict[tuple, list[SharedProbeGenContext]] = {}
        for handle in remaining:
            groups.setdefault(handle_key(handle), []).append(handle)
        leftovers: list[SharedProbeGenContext] = []
        for handles in groups.values():
            if len(handles) < 2:
                leftovers.extend(handles)
                continue
            host = handles[0]
            entry = host._promote()
            for other in handles[1:]:
                if _tables_identical(
                    entry.context.table, other._my_table
                ):
                    other._reattach(entry)
                    merged += 1
                else:
                    leftovers.append(other)
        self.forked = leftovers
        self.stats.contexts_remerged += merged
        return merged


class SharedProbeGenContext:
    """Per-switch handle over a (possibly shared) probe-gen context.

    API-compatible with :class:`ProbeGenContext` as the Monitor uses
    it: ``table``, ``stats``, ``validate_result``, :meth:`add_rule`,
    :meth:`remove_rule`, :meth:`apply_flowmod`, :meth:`probe_for`,
    :meth:`clear_cache`.
    """

    #: From-scratch probes tolerated while waiting for replicas to
    #: converge; persistent behind-ness forces a divergence resolution
    #: (rewind if possible, else a cold fork) after this many.
    MAX_BEHIND_PROBES = 8

    def __init__(
        self,
        registry: SharedContextRegistry,
        entry: _SharedEntry,
        generator: ProbeGenerator,
        initial: tuple[Rule, ...],
        validate_result: "Callable[[ProbeResult], ProbeResult] | None",
    ) -> None:
        self._registry = registry
        self._entry: _SharedEntry | None = entry
        self._own: ProbeGenContext | None = None
        self.generator = generator
        self.validate_result = validate_result
        self.stats = ProbeGenContextStats()
        self._obs = NULL_OBSERVER
        self._obs_node: object | None = None
        self.forked = False
        self._log_pos = entry.head()
        #: This switch's own table: same (priority, match, actions)
        #: content as its replicas but holding its *own* rule objects
        #: (cookies), maintained through every operation.  Serves as
        #: the cookie overlay for probe results, as the private view
        #: while the handle is behind the shared log, and as the
        #: rebuild source for a cold fork.
        self._my_table = FlowTable(initial, check_overlap=False)
        self._behind_probes = 0
        #: Per-handle validation memo: rule key -> (raw result identity,
        #: validated per-switch copy).
        self._validated: dict[
            tuple[int, Match], tuple[ProbeResult, ProbeResult]
        ] = {}

    # ----- introspection --------------------------------------------------

    @property
    def table(self) -> FlowTable:
        """This switch's expected table.

        The shared table while converged; the handle's private table
        while replicas it has not caught up with are ahead (a read
        never exposes foreign operations — and never forces a fork).
        """
        entry = self._entry
        if entry is not None and self._log_pos != entry.head():
            return self._my_table
        return self._context().table

    @property
    def is_shared(self) -> bool:
        """Currently sharing an underlying context with other switches."""
        return self._entry is not None and len(self._entry.handles) > 1

    def fingerprint(self) -> str:
        """Fingerprint of the current table (O(1): rolling, diagnostics)."""
        return self.table.fingerprint()

    @property
    def solver(self) -> IncrementalSolver:
        """The solver of the context this handle is attached to."""
        return self._context().solver

    def _context(self) -> ProbeGenContext:
        if self._own is not None:
            return self._own
        assert self._entry is not None
        return self._entry.context

    def attach_obs(self, obs: object, node: object) -> None:
        """Publish this handle's lifecycle + solve timings.

        Solve-time attribution on a *shared* context is inherently
        approximate — replicas take turns on one solver, and the
        context's histogram label follows the last attacher — but the
        fork/remerge trace events are exact and per-handle.
        """
        self._obs = obs
        self._obs_node = node
        self._context().attach_obs(node=node, obs=obs)

    # ----- delta API -------------------------------------------------------

    # The per-switch mirror is mutated AFTER ``_apply``: a divergent op
    # may fork the handle off the shared entry, and the undo-based fork
    # verifies its reconstruction against ``_my_table``, which must
    # still reflect the handle's log position (not the in-flight op).

    def add_rule(self, rule: Rule) -> None:
        self.stats.rules_added += 1
        self._apply(
            ("add", _rule_sig(rule)),
            ("add", rule),
            lambda ctx: ctx.add_rule(rule),
        )
        self._my_table.install(rule)

    def remove_rule(self, rule: Rule) -> None:
        self._validated.pop(rule.key(), None)
        self.stats.rules_removed += 1
        self._apply(
            ("remove", rule.priority, rule.match),
            ("remove", rule),
            lambda ctx: ctx.remove_rule(rule),
        )
        self._my_table.remove(rule)

    def apply_flowmod(self, mod: FlowMod) -> list[Rule]:
        """Apply FlowMod semantics; returns this switch's affected rules."""
        self._apply(
            (
                "flowmod",
                mod.command.value,
                mod.priority,
                mod.match,
                mod.actions,
            ),
            ("flowmod", mod),
            lambda ctx: ctx.apply_flowmod(mod),
        )
        return self._track_flowmod(mod)

    def _track_flowmod(self, mod: FlowMod) -> list[Rule]:
        """Apply the FlowMod to this switch's own table.

        Delegates to the one authoritative OF 1.0 implementation
        (:func:`repro.switches.switch.apply_flowmod`) so the overlay
        can never drift from what the shared context does.
        """
        from repro.switches.switch import apply_flowmod  # avoid cycle

        deleting = mod.command.is_delete
        modifying = mod.command.is_modify
        had_key = self._my_table.get(mod.priority, mod.match) is not None
        affected = apply_flowmod(self._my_table, mod)
        for rule in affected:
            if deleting:
                self.stats.rules_removed += 1
                self._validated.pop(rule.key(), None)
            elif modifying and (
                rule.key() != (mod.priority, mod.match) or had_key
            ):
                self.stats.rules_modified += 1
            else:
                self.stats.rules_added += 1
        return affected

    def _apply(
        self,
        sig: OpSig,
        op: tuple[str, object],
        run: Callable[[ProbeGenContext], object],
    ) -> None:
        self._registry.churn_ops += 1
        entry = self._entry
        if entry is None:
            assert self._own is not None
            self._run_mirrored(self._own, run)
            return
        index = self._log_pos - entry.base
        if index < len(entry.log):
            if entry.log[index][0] == sig:
                # A replica already applied this exact operation to the
                # shared table; just advance.
                self._log_pos += 1
                if self._log_pos == entry.head():
                    self._behind_probes = 0
                return
            # Diverging while behind: try to roll the ahead replicas'
            # private operations off the shared context (they warm-fork
            # away); fall back to a cold fork of this handle.
            if not self._try_rewind(entry):
                self._fork()
                assert self._own is not None
                self._run_mirrored(self._own, run)
                return
        # At the head (possibly after a rewind): mutate the shared table.
        undo = _undo_info(entry.context.table, op)
        self._run_mirrored(entry.context, run)
        entry.log.append((sig, undo))
        self._log_pos += 1
        if entry.base == 0 and len(entry.log) == 1:
            self._registry._mark_dirty(entry)
        entry.trim()

    # ----- convergence ----------------------------------------------------

    def _try_rewind(self, entry: _SharedEntry) -> bool:
        """Undo ahead replicas' private operations, warm-forking them.

        Possible exactly when every handle ahead of this one sits at
        the log head — then each of them can clone the shared state
        verbatim (their tables ARE the shared table), after which the
        shared context rolls back to this handle's position and the
        remaining replicas are converged again.  Returns True when the
        handle ends up at the head.
        """
        target = self._log_pos
        ahead = [h for h in entry.handles if h._log_pos > target]
        if not ahead:
            return True
        if any(h._log_pos != entry.head() for h in ahead):
            return False  # staggered divergence; cannot untangle
        for handle in list(ahead):
            handle._fork_warm(entry)
        entry.rewind_to(target)
        self._registry.stats.rewinds += 1
        self._behind_probes = 0
        return True

    def _run_mirrored(
        self,
        context: ProbeGenContext,
        run: Callable[[ProbeGenContext], object],
    ) -> None:
        """Run a context call, mirroring its stat deltas onto the handle."""
        before = [getattr(context.stats, name) for name in _SERVE_FIELDS]
        run(context)
        self._mirror(context, before)

    def _mirror(self, context: ProbeGenContext, before: list) -> None:
        for name, prior in zip(_SERVE_FIELDS, before):
            delta = getattr(context.stats, name) - prior
            if delta:
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # ----- forking ---------------------------------------------------------

    def _fork_warm(self, entry: _SharedEntry) -> None:
        """Clone the shared state (only legal at the log head)."""
        assert self._log_pos == entry.head()
        self._own = entry.context.fork()
        self._finish_fork(entry)
        self._registry.stats.warm_forks += 1

    def _fork(self) -> None:
        """Take an independent context (copy-on-churn divergence)."""
        entry = self._entry
        assert entry is not None
        if self._log_pos == entry.head():
            self._fork_warm(entry)
            return
        # Behind the log: the shared table contains operations this
        # switch never applied.  Clone the shared state anyway and
        # undo the foreign operations on the *private* copy — the same
        # per-op undo records `rewind_to` replays on the shared table,
        # applied to the clone instead — so solver warmth survives
        # even the staggered multi-switch divergences a shared rewind
        # cannot untangle.  The clone's delta API stale-marks affected
        # cached probes as each undo lands, exactly as live churn
        # would.
        own = entry.context.fork()
        for _sig, undo in reversed(entry.log[self._log_pos - entry.base :]):
            for key, previous in reversed(undo):
                if previous is None:
                    current = own.table.get(*key)
                    if current is not None:
                        own.remove_rule(current)
                else:
                    own.add_rule(previous)
        if _tables_identical(own.table, self._my_table):
            self._own = own
            self._registry.stats.warm_forks += 1
        else:
            # Undo reconstruction disagreed with the handle's own view
            # (it never should — the safety net exists so a bug here
            # degrades to the old cold fork instead of corrupting
            # probes).  Start cold from the handle's own table.
            self._own = self._registry._factory(
                self.generator, table=self._my_table.copy()
            )
        self._finish_fork(entry)

    def _finish_fork(self, entry: _SharedEntry) -> None:
        self.forked = True
        self._entry = None
        self._validated.clear()
        self._registry.stats.contexts_forked += 1
        self._registry.forked.append(self)
        self._registry._detach(entry, self)
        if self._obs.enabled:  # type: ignore[attr-defined]
            assert self._own is not None
            self._own.attach_obs(self._obs, self._obs_node)
            self._obs.emit(  # type: ignore[attr-defined]
                "context.forked",
                node=self._obs_node,
                warm=self._own.solver.lemma_count() > 0,
                total_forked=self._registry.stats.contexts_forked,
            )
        if self._registry.on_fork is not None:
            self._registry.on_fork()

    # ----- re-convergence (registry.rededupe) ------------------------------

    def _reattach(self, entry: _SharedEntry) -> None:
        """Re-join a shared entry after the tables converged back.

        Only called by :meth:`SharedContextRegistry.rededupe` once the
        entry's table is rule-sequence-identical to this handle's.
        When the fork was warm, its accumulated state is not simply
        dropped: probe caches merge in both directions (a result is a
        pure function of the now-identical table), and whichever
        context holds the richer solver — more learned lemmas —
        becomes the entry's context, so the warmth the fork earned
        while diverged survives the re-merge.  Future probes are served
        — and cookie-overlaid, validated per-handle — from the shared
        context exactly as before the fork.
        """
        own = self._own
        if own is not None:
            stats = self._registry.stats
            shared = entry.context
            if own.solver.lemma_count() > shared.solver.lemma_count():
                # The fork learned more than the entry did: keep its
                # solver, graft the entry's probe cache onto it.
                stats.cache_entries_merged += own.merge_cache_from(shared)
                entry.context = own
                stats.solvers_kept_on_remerge += 1
            else:
                stats.cache_entries_merged += shared.merge_cache_from(own)
        self._own = None
        self._entry = entry
        self._log_pos = entry.head()
        self.forked = False
        self._behind_probes = 0
        self._validated.clear()
        entry.handles.append(self)
        if self._obs.enabled:  # type: ignore[attr-defined]
            self._obs.emit(  # type: ignore[attr-defined]
                "context.remerged",
                node=self._obs_node,
                mode="reattach",
                sharers=len(entry.handles),
            )

    def _promote(self) -> _SharedEntry:
        """Turn this forked handle's private context into a shared entry.

        The handle keeps its context (no state is copied or lost); the
        context merely becomes joinable so sibling forked handles with
        identical tables can re-attach to it.
        """
        assert self._own is not None
        entry = _SharedEntry(self._own)
        self._own = None
        self._entry = entry
        self._log_pos = 0
        self.forked = False
        self._behind_probes = 0
        entry.handles.append(self)
        self._registry.entries.append(entry)
        if self._obs.enabled:  # type: ignore[attr-defined]
            self._obs.emit(  # type: ignore[attr-defined]
                "context.remerged",
                node=self._obs_node,
                mode="promote",
                sharers=len(entry.handles),
            )
        return entry

    # ----- probe serving ---------------------------------------------------

    def probe_for(self, rule: Rule) -> ProbeResult:
        """A probe for ``rule``, served through the shared context.

        Work done by the underlying context on behalf of this call is
        mirrored into this handle's stats (a solve triggered here
        counts here; a result another replica already paid for counts
        as this switch's cache hit).  The returned result carries this
        switch's own rule object, validated by this switch's
        ``validate_result`` on a private copy — the shared cache is
        never mutated.

        While replicas this switch has not caught up with are ahead of
        it (a churn wave in flight), the probe is generated from
        scratch against the handle's own table instead — never from
        foreign state, and never forcing a fork for a mere read; only
        *persistent* behind-ness resolves the divergence (rewinding the
        ahead replicas off if possible, cold-forking otherwise).
        """
        entry = self._entry
        if entry is not None and self._log_pos != entry.head():
            self._behind_probes += 1
            if self._behind_probes <= self.MAX_BEHIND_PROBES:
                return self._scratch_probe(rule)
            if not self._try_rewind(entry):
                self._fork()
        else:
            self._behind_probes = 0
        context = self._context()
        before = [getattr(context.stats, name) for name in _SERVE_FIELDS]
        raw = context.probe_for(rule)
        self._mirror(context, before)
        key = rule.key()
        memo = self._validated.get(key)
        if memo is not None and memo[0] is raw:
            return memo[1]
        own = self._my_table.get(*key)
        result = replace(raw, rule=own if own is not None else rule)
        if result.ok and self.validate_result is not None:
            result = self.validate_result(result)
        self._validated[key] = (raw, result)
        return result

    def _scratch_probe(self, rule: Rule) -> ProbeResult:
        """From-scratch generation against the own table (uncached)."""
        result = self.generator.generate(self._my_table, rule)
        self.stats.probes_generated += 1
        self.stats.solver_conflicts += result.solver_conflicts
        self.stats.generation_seconds += result.generation_time
        own = self._my_table.get(*rule.key())
        result = replace(result, rule=own if own is not None else rule)
        if result.ok and self.validate_result is not None:
            result = self.validate_result(result)
        return result

    def clear_cache(self) -> None:
        """Drop cached probes (benchmark hook; affects co-shared switches)."""
        self._context().clear_cache()
        self._validated.clear()

    def __repr__(self) -> str:
        state = "forked" if self.forked else (
            "shared" if self.is_shared else "sole"
        )
        return (
            f"SharedProbeGenContext({state}, "
            f"rules={len(self._my_table)}, log_pos={self._log_pos})"
        )
