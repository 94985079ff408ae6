"""Tuple-space-search overlap index (Srinivasan & Varghese).

The §5.4 pre-filter asks, for every probed rule, which rules' matches
*overlap* a given match.  A packed linear scan answers that in O(N) per
query; production tables (tens of thousands of ACL/routing rules) with
sparse overlap sets deserve O(candidates).

:class:`TupleSpaceIndex` buckets entries by a **mask signature** (the
"tuple" of classic tuple-space search, as in the Open vSwitch
classifier).  A signature is the entry's packed mask *coarsened* per
field — full-field masks kept whole, CIDR-style prefixes rounded down
to 8-bit steps, irregular masks dropped to wildcard — so real tables
collapse into a few dozen buckets instead of one per distinct prefix
length, keeping the per-query bucket loop small.

A query is answered from a **plan** cached per query signature (the
query's mask coarsened once).  Per bucket, ``anchor = bucket_sig &
query_sig`` names the coarse bits *both* sides constrain, and any
overlapping row agrees with the query on every anchor bit.  The plan,
built on the first query with a signature, places each bucket on a
**level** (``value & anchor -> rows``, built lazily per anchor and
maintained incrementally afterwards — the staged-lookup trick):

* the bucket's level for its anchor, built if the bucket keeps fewer
  than ``_MAX_LEVELS`` levels;
* else its built level on the widest non-empty subset of the anchor —
  a row that agrees with the query on the anchor agrees on any subset;
* else (an empty anchor, or no subset level) the bucket is **scanned**:
  aggregate **value bounds** (OR and AND of member values) prune it
  when no row can agree on the bits both masks share, and otherwise
  its rows are checked one by one.

Buckets on levels of one anchor form a group, so a query computes
``value & anchor`` once per group and probes each level with it.
Levels are never evicted and buckets are never dropped (an emptied
bucket stays, with empty levels), so a plan stays valid until a new
bucket appears; only then are the plans cleared.  A bucket builds at
most ``_MAX_LEVELS`` query levels (plus its own signature's, for
:meth:`TupleSpaceIndex.lookup`), so a query mix cycling through more
anchors than the quota never re-hashes a bucket.

Rows store their exact ``(value, mask)``, and every path re-verifies
the pairwise overlap test

    ``(v1 ^ v2) & m1 & m2 == 0``

so coarsening affects only performance, never the result set.

Maintenance is incremental: adds append (and join each built hash
level); removals tombstone the row and unlink its hash records; a
bucket compacts its row array when it empties or tombstones outnumber
live rows.  The value bounds are monotone under removal (the stale OR
is a superset, the stale AND a subset, of the true bounds) so pruning
stays sound between compactions; compaction recomputes them.

Keys are arbitrary hashable identifiers — :class:`~repro.openflow.
table.FlowTable` indexes rule keys, the probe-generation context
indexes cached-probe keys, and the dynamic monitor indexes in-flight
update tokens with the same structure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterator

from repro.openflow.fields import HEADER

#: One indexed entry: (packed value, packed mask, caller's key).
_Row = tuple[int, int, Hashable]

#: One level: ``value & anchor`` -> the live rows with that key.
_Level = dict[int, list[_Row]]

#: Compact a bucket when its row array holds more than this many rows
#: AND tombstones outnumber live rows (small buckets never bother).
_COMPACT_MIN_ROWS = 16

#: Prefix lengths are rounded down to this granularity when coarsening
#: a field's mask into the bucket signature.
_PREFIX_STEP = 8

#: Query levels a bucket builds; later anchors are probed on a built
#: level over a subset of their bits, or scanned (module doc).  Each
#: level holds one hash record per live row and costs O(1) per
#: add/remove to maintain, so a bucket holds at most
#: ``_MAX_LEVELS + 1`` records per row (its signature's level besides)
#: however many query masks a workload invents.  The small buckets of
#: the ACL tables see 20-41 anchors; on the seed-7 tables' cold sample
#: each anchor past the quota finds a built subset level.
_MAX_LEVELS = 16

#: (bit shift into the packed header, field width) per header field.
_FIELD_SPANS: tuple[tuple[int, int], ...] = tuple(
    (HEADER.total_bits - field.offset - field.width, field.width)
    for field in HEADER
)


@lru_cache(maxsize=4096)
def signature_of(mask: int) -> int:
    """Coarsen a packed mask into its bucket signature.

    Per field: a full-field mask stays; a prefix keeps its top
    ``_PREFIX_STEP``-aligned bits; anything else (including too-short
    prefixes and non-prefix masks) coarsens to wildcard.  The result is
    always a subset of ``mask``, which is all correctness needs — the
    signature only decides bucketing and hash keys.

    Signatures are intersection-compatible: for a signature ``s`` and
    any mask ``m``, ``signature_of(s & m) == s & signature_of(m)``, so
    a query coarsens its mask once and per-bucket anchors are one AND.

    Memoized: a table has few distinct masks (ACL tables: 676, 1,309).
    """
    sig = 0
    for shift, width in _FIELD_SPANS:
        span = ((1 << width) - 1) << shift
        field_bits = mask & span
        if not field_bits:
            continue
        if field_bits == span:
            sig |= span
            continue
        field_mask = field_bits >> shift
        prefix_len = field_mask.bit_count()
        top = (((1 << prefix_len) - 1) << (width - prefix_len)) & (
            (1 << width) - 1
        )
        if field_mask != top:
            continue  # non-prefix mask: wildcard in the signature
        kept = (prefix_len // _PREFIX_STEP) * _PREFIX_STEP
        if kept:
            sig |= (((1 << kept) - 1) << (width - kept)) << shift
    return sig


class _Tuple:
    """One signature bucket."""

    __slots__ = ("sig", "rows", "levels", "live", "value_or", "value_and")

    def __init__(self, sig: int) -> None:
        self.sig = sig
        #: Append-only rows; ``None`` marks a tombstone.
        self.rows: list[_Row | None] = []
        #: anchor -> level: the staged hashes.  Built lazily per anchor
        #: on first query, incremental after, never evicted.
        self.levels: dict[int, _Level] = {}
        self.live = 0
        #: OR / AND of every value added since the last compaction:
        #: sound over-approximations of the live bounds (module doc).
        self.value_or = 0
        self.value_and = -1

    def level(self, anchor: int) -> _Level:
        """The hash on ``value & anchor``, building it on first use."""
        level = self.levels.get(anchor)
        if level is None:
            level = {}
            for row in self.rows:
                if row is not None:
                    level.setdefault(row[0] & anchor, []).append(row)
            self.levels[anchor] = level
        return level


#: A query signature's plan: the groups of ``(anchor, levels)`` probed
#: with one key each, and the buckets scanned.
_Plan = tuple[tuple[tuple[int, tuple[_Level, ...]], ...], tuple[_Tuple, ...]]


class TupleSpaceIndex:
    """Incremental overlap/containment index over (value, mask) entries.

    ``add``/``discard`` are O(built levels) ~ O(1) amortized;
    :meth:`query` follows its signature's plan — one hash key per
    anchor group, one probe per level, a value-bound prune or packed
    scan per scanned bucket; :meth:`lookup` is one hash probe per
    bucket.
    """

    __slots__ = ("_tuples", "_where", "_plans", "compactions")

    def __init__(self) -> None:
        #: signature -> bucket; a bucket that empties stays.
        self._tuples: dict[int, _Tuple] = {}
        #: key -> (signature, row index) for O(1) removal.
        self._where: dict[Hashable, tuple[int, int]] = {}
        #: query signature -> its plan; cleared when a bucket is
        #: created.
        self._plans: dict[int, _Plan] = {}
        self.compactions = 0

    # ----- maintenance ----------------------------------------------------

    def add(self, key: Hashable, value: int, mask: int) -> None:
        """Insert (or move) ``key`` with a packed (value, mask) entry."""
        if key in self._where:
            self.discard(key)
        sig = signature_of(mask)
        bucket = self._tuples.get(sig)
        if bucket is None:
            bucket = self._tuples[sig] = _Tuple(sig)
            self._plans.clear()
        row: _Row = (value, mask, key)
        self._where[key] = (sig, len(bucket.rows))
        bucket.rows.append(row)
        for anchor, level in bucket.levels.items():
            level.setdefault(value & anchor, []).append(row)
        bucket.live += 1
        bucket.value_or |= value
        bucket.value_and &= value

    def discard(self, key: Hashable) -> bool:
        """Remove ``key``; returns False when it was not indexed."""
        where = self._where.pop(key, None)
        if where is None:
            return False
        sig, row_index = where
        bucket = self._tuples[sig]
        row = bucket.rows[row_index]
        assert row is not None
        bucket.rows[row_index] = None
        bucket.live -= 1
        value = row[0]
        for anchor, level in bucket.levels.items():
            hash_key = value & anchor
            records = level[hash_key]
            records.remove(row)
            if not records:
                del level[hash_key]
        if not bucket.live or (
            len(bucket.rows) > _COMPACT_MIN_ROWS
            and len(bucket.rows) > 2 * bucket.live
        ):
            self._compact(bucket)
        return True

    def _compact(self, bucket: _Tuple) -> None:
        rows = [row for row in bucket.rows if row is not None]
        bucket.rows = rows
        value_or = 0
        value_and = -1
        where = self._where
        for row_index, row in enumerate(rows):
            where[row[2]] = (bucket.sig, row_index)
            value_or |= row[0]
            value_and &= row[0]
        bucket.value_or = value_or
        bucket.value_and = value_and
        self.compactions += 1

    # ----- queries --------------------------------------------------------

    def query(self, value: int, mask: int) -> list[Hashable]:
        """Keys whose entry *overlaps* the query (some packet in both).

        Bucket order (and row order within a bucket) is arbitrary;
        callers needing a deterministic order sort the result.
        """
        query_sig = signature_of(mask)
        plan = self._plans.get(query_sig)
        if plan is None:
            plan = self._plans[query_sig] = self._plan(query_sig)
        groups, scans = plan
        out: list[Hashable] = []
        for anchor, levels in groups:
            # Overlapping rows agree with the query on the anchor bits.
            key = value & anchor
            for level in levels:
                hit = level.get(key)
                if hit:
                    out.extend(
                        k
                        for v, m, k in hit
                        if not ((v ^ value) & m & mask)
                    )
        for bucket in scans:
            common = bucket.sig & mask
            if common:
                # Coarse masks disjoint but exact ones not: value
                # bounds can prove no row agrees on the common bits.
                if value & common & ~bucket.value_or:
                    continue
                if ~value & common & bucket.value_and:
                    continue
            out.extend(
                row[2]
                for row in bucket.rows
                if row is not None
                and not ((row[0] ^ value) & row[1] & mask)
            )
        return out

    def _plan(self, query_sig: int) -> _Plan:
        """Place every bucket on a level or in the scans (module doc)."""
        groups: dict[int, list[_Level]] = {}
        scans: list[_Tuple] = []
        for sig, bucket in self._tuples.items():
            anchor = sig & query_sig
            levels = bucket.levels
            if anchor and anchor not in levels:
                if len(levels) < _MAX_LEVELS:
                    bucket.level(anchor)
                else:
                    anchor = max(
                        (a for a in levels if a and not a & ~anchor),
                        key=int.bit_count,
                        default=0,
                    )
            if anchor:
                groups.setdefault(anchor, []).append(levels[anchor])
            else:
                scans.append(bucket)
        planned = tuple((a, tuple(ls)) for a, ls in groups.items())
        return planned, tuple(scans)

    def lookup(self, packed_header: int) -> Iterator[Hashable]:
        """Keys whose entry *matches* a fully-specified packed header.

        One probe of each bucket's full-signature hash level (the
        classic tuple-space lookup).
        """
        for sig, bucket in self._tuples.items():
            hit = bucket.level(sig).get(packed_header & sig)
            if hit:
                for v, m, k in hit:
                    if not ((v ^ packed_header) & m):
                        yield k

    # ----- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._where

    def __repr__(self) -> str:
        return (
            f"TupleSpaceIndex({len(self._where)} entries, "
            f"{len(self._tuples)} tuples)"
        )
