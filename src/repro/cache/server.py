"""The versioned cache server (paper section 4).

Unlike a plain hash table, the cache is *versioned*: each entry is tagged
with the validity interval over which its value was current, and several
entries with the same key but disjoint intervals may coexist.  Lookups ask
for a key *and* a range of acceptable timestamps; the server returns the most
recent entry whose interval intersects the range.

Still-valid entries (unbounded interval) carry invalidation tags.  The server
consumes the database's invalidation stream in commit-timestamp order and
truncates the interval of every affected still-valid entry at the
invalidating transaction's timestamp.  Ordering cache contents and
invalidations by the same commit timestamps eliminates the classic
insert/invalidate race: if an entry is inserted *after* the invalidation that
affects it has already been processed, the server truncates it immediately on
insert.

One rule decides what "affects" means at both of those sites
(:func:`_can_end`): an invalidation at T bounds only entries born *before* T.
An entry ``[lo, inf)`` was computed at a snapshot >= ``lo``, so it already
reflects the commit at ``lo`` — whose own invalidation carries the entry's
tags and the timestamp ``lo``, and usually reaches the node before the
reader's ``put`` does.  Counting it against the entry would store every
result read from a just-written row as the sliver ``[lo, lo + 1)``.

Eviction uses least-recently-used ordering over a byte budget, plus eager
removal of entries too stale to satisfy any transaction's staleness limit.

Thread safety
-------------
:class:`CacheServer` is fully thread-safe: one reentrant lock per server
serializes every public operation, so the in-process transport (many client
threads calling directly) and the netserver's thread-per-connection handlers
may hit the same server concurrently.  A single per-server lock was chosen
over per-key lock striping after measuring both: the LRU ordering, the byte
budget, and the statistics are whole-server state that every operation
touches, so striping still needs a server-wide lock around exactly the
contended part, and under CPython's GIL the striped variant measured within
noise of the single lock while adding a second acquire per operation (see
README "Concurrency").  Batched operations (:meth:`multi_lookup`,
:meth:`install_entries`) hold the lock for the whole batch, so a batch is
atomic with respect to concurrent invalidations.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cache.entry import (
    CacheEntry,
    EntryRecord,
    LookupRequest,
    LookupResult,
    estimate_size,
)
from repro.cache.hashring import HASH_SPACE, _hash as _ring_hash
from repro.clock import Clock, SystemClock
from repro.comm.multicast import InvalidationMessage
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

__all__ = ["CacheServer", "CacheServerStats"]


def _locked(method):
    """Run ``method`` under the server's reentrant lock (thread safety)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


def _index_arcs(arcs: Sequence[Tuple[int, int]]):
    """Prepare hash-space arcs for point location by bisect.

    Wrapping arcs split into two flat segments; ``lo == hi`` (the full
    circle) is kept aside and matches every point.  Returns
    ``(segments, starts, full_circle)`` where ``segments`` is sorted
    ``(lo, hi, original_index)`` and ``starts`` the parallel ``lo`` list.
    """
    segments: List[Tuple[int, int, int]] = []
    full_circle: List[int] = []
    for index, (lo, hi) in enumerate(arcs):
        if lo == hi:
            full_circle.append(index)
        elif lo < hi:
            segments.append((lo, hi, index))
        else:
            segments.append((lo, HASH_SPACE, index))
            segments.append((0, hi, index))
    segments.sort()
    return segments, [segment[0] for segment in segments], tuple(full_circle)


def _locate_arc(segments, starts, point: int) -> Optional[int]:
    """The original arc index containing ``point`` (arcs are disjoint)."""
    index = bisect.bisect_right(starts, point) - 1
    if index >= 0 and point < segments[index][1]:
        return segments[index][2]
    return None


def _can_end(timestamp: int, lo: int) -> bool:
    """Whether an invalidation at ``timestamp`` can end an entry born at ``lo``.

    Only a strictly later one can: the database computed ``[lo, inf)`` at a
    snapshot >= ``lo``, so the value already reflects every commit up to and
    including ``lo``.  This is exact, not merely safe — "still valid" was as
    of the database's latest commit L at query time, so a matching
    invalidation in ``(lo, L]`` is tag coarseness and one after L is a real
    change, whichever side of the ``put`` it arrives on.  The stream applies
    the predicate as written (:meth:`CacheServer._truncate_still_valid`);
    a late insert applies it to a sorted history by ``bisect_right``
    (:meth:`CacheServer._first_invalidation_after`).
    """
    return timestamp > lo


def _discard_from(index: Dict, slot, key: str) -> None:
    """Remove ``key`` from ``index[slot]``, dropping the slot once empty."""
    keys = index.get(slot)
    if keys is not None:
        keys.discard(key)
        if not keys:
            del index[slot]


@dataclass
class CacheServerStats:
    """Counters exposed by a cache server."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    rejected_insertions: int = 0
    lru_evictions: int = 0
    stale_evictions: int = 0
    invalidation_messages: int = 0
    entries_invalidated: int = 0
    #: Key-migration traffic (cluster elasticity): entry versions shipped out
    #: of this node, installed onto it, and discarded after a handoff.
    entries_extracted: int = 0
    entries_installed: int = 0
    entries_discarded: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when there were none)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def merge(self, other: "CacheServerStats") -> "CacheServerStats":
        """Add another node's counters into this one; returns ``self``.

        This is the one place cross-node stats aggregation lives: the
        cluster (and anything else summing per-node counters) goes through
        ``merge`` / ``+=`` instead of open-coding a field loop.  Like
        :meth:`reset`, it covers every dataclass field so a counter added
        later cannot silently drop out of aggregation.
        """
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __iadd__(self, other: "CacheServerStats") -> "CacheServerStats":
        return self.merge(other)


class CacheServer:
    """One cache node: a versioned, invalidation-aware, bounded store."""

    def __init__(
        self,
        name: str = "cache0",
        capacity_bytes: int = 64 * 1024 * 1024,
        clock: Optional[Clock] = None,
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.clock = clock or SystemClock()
        self.stats = CacheServerStats()
        #: Serializes every public operation (see "Thread safety" above).
        #: Reentrant so composite operations (install_entries -> put) nest.
        self._lock = threading.RLock()
        #: key -> versions of that key, kept sorted by interval lower bound.
        self._entries: Dict[str, List[CacheEntry]] = {}
        #: LRU ordering over keys (most recently used last).
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        #: precise tag -> keys of still-valid entries depending on it.
        self._tag_index: Dict[InvalidationTag, Set[str]] = {}
        #: table name -> keys of still-valid entries holding that table's
        #: wildcard tag (a precise invalidation affects these as well).
        self._wildcard_index: Dict[str, Set[str]] = {}
        #: table name -> keys of still-valid entries with any tag on it
        #: (needed to resolve wildcard invalidations).
        self._table_index: Dict[str, Set[str]] = {}
        #: every key ever stored (for compulsory-miss classification).
        self._keys_ever_stored: Set[str] = set()
        #: highest invalidation timestamp processed so far.
        self.last_invalidation_timestamp = 0
        #: ascending invalidation timestamps seen per precise tag / table,
        #: used to truncate entries inserted after an invalidation that
        #: affects them already arrived.  A *history* rather than just the
        #: latest timestamp: with concurrent writers, several invalidations
        #: of the same tag can land between a transaction's query and its
        #: cache insert, and the truncation point must be the *first* one
        #: strictly after the entry's birth (the latest would overclaim
        #: validity for every intermediate version; one *at* the birth is
        #: the commit the entry was read from).  ``evict_stale`` prunes the
        #: prefixes no lookup can reach.
        self._tag_invalidations: Dict[InvalidationTag, List[int]] = {}
        self._table_invalidations: Dict[str, List[int]] = {}
        self._used_bytes = 0
        #: Resident gossip-membership agent (attached by the deployment's
        #: GossipRunner; None on nodes not participating in gossip).  The
        #: ``gossip`` wire op delegates to it, which is how membership
        #: digests piggyback on the cache transport under every deployment
        #: style.  The agent carries its own lock — digest exchange never
        #: takes the server lock, so gossip keeps flowing while a
        #: maintenance scan holds it.
        self.gossip_agent = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently charged against the capacity."""
        return self._used_bytes

    @property
    def entry_count(self) -> int:
        """Total number of stored entry versions."""
        with self._lock:
            return sum(len(versions) for versions in self._entries.values())

    @property
    def key_count(self) -> int:
        """Number of distinct keys with at least one stored version."""
        return len(self._entries)

    def versions_of(self, key: str) -> List[CacheEntry]:
        """All stored versions of ``key`` (oldest validity first)."""
        with self._lock:
            return list(self._entries.get(key, ()))

    def keys(self) -> List[str]:
        """The keys with at least one stored version, sorted.

        Used by replica-placement checks (does every replica of a key hold a
        copy?) and the anti-entropy repair tests; like :meth:`probe` it
        touches neither statistics nor LRU ordering.
        """
        with self._lock:
            return sorted(self._entries)

    @_locked
    def key_digest(self, arcs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
        """Per-arc interval-set digests of the stored keys (anti-entropy).

        For each hash-space arc ``[lo, hi)`` (wrapping allowed; ``lo == hi``
        is the full circle) this folds every stored key whose ring point
        falls inside the arc into an order-independent triple
        ``(count, xor, sum mod 2^64)`` of the keys' 64-bit ring hashes — a
        Merkle-style leaf digest over the arc's key *set*.  Two replicas of
        an arc that hold the same key set report the same triple, so repair
        planning can prove an arc clean from one small round trip per node
        instead of shipping full ``keys()`` inventories.  Reconciliation
        stays key-granular (matching :meth:`install_entries` semantics), so
        keys — not values or versions — are what the digest covers.

        Arcs within one call must be disjoint (ring segments are); a key on
        an arc boundary belongs to the arc it opens, mirroring
        :func:`repro.cache.hashring.range_contains`.
        """
        segments, starts, full_circle = _index_arcs(arcs)
        digests = [[0, 0, 0] for _ in arcs]
        for key in self._entries:
            point = _ring_hash(key)
            index = _locate_arc(segments, starts, point)
            for target in full_circle if index is None else (*full_circle, index):
                bucket = digests[target]
                bucket[0] += 1
                bucket[1] ^= point
                bucket[2] = (bucket[2] + point) % HASH_SPACE
        return [tuple(bucket) for bucket in digests]

    @_locked
    def keys_in_range(self, arcs: Sequence[Tuple[int, int]]) -> List[str]:
        """The stored keys whose ring points fall inside the given arcs.

        The targeted follow-up to :meth:`key_digest`: once a digest
        mismatch marks an arc dirty, repair fetches only that arc's keys —
        never the whole store.  Sorted, stats-free, LRU-free.
        """
        segments, starts, full_circle = _index_arcs(arcs)
        if full_circle:
            return sorted(self._entries)
        return sorted(
            key
            for key in self._entries
            if _locate_arc(segments, starts, _ring_hash(key)) is not None
        )

    def gossip_exchange(self, digest: dict) -> dict:
        """Merge a membership digest into the resident agent; answer with ours.

        Deliberately *not* ``@_locked``: the agent synchronizes itself, so
        membership traffic is never queued behind a store scan — a wedged
        maintenance op must not stall failure detection.  Returns an empty
        digest when no agent is attached (gossip disabled), which merges as
        a no-op on the caller.
        """
        agent = self.gossip_agent
        if agent is None:
            return {}
        return agent.exchange(digest)

    @_locked
    def was_ever_stored(self, key: str) -> bool:
        """True if ``key`` has ever been inserted on this server."""
        return key in self._keys_ever_stored

    @_locked
    def stats_snapshot(self) -> CacheServerStats:
        """A consistent copy of the counters, taken under the server lock.

        Reading the live :attr:`stats` object field-by-field while another
        thread is inside a locked operation can observe a torn update (e.g.
        a lookup counted but its hit not yet); transports serve this
        snapshot instead.
        """
        return CacheServerStats().merge(self.stats)

    @_locked
    def reset_stats(self) -> None:
        """Zero the counters without racing in-flight operations."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @_locked
    def lookup(self, key: str, lo: int, hi: int, fresh_lo: int = 0) -> LookupResult:
        """Find a version of ``key`` valid somewhere in ``[lo, hi]``.

        ``lo`` and ``hi`` are inclusive timestamp bounds (the bounds of the
        requesting transaction's pin set).  Returns the most recent matching
        version together with its *effective* interval — for a still-valid
        entry, the upper bound reflects only invalidations processed so far.

        A miss also says whether some version reaches past ``fresh_lo``, the
        lower bound of the transaction's staleness window (see
        :attr:`LookupResult.fresh_version_exists`): what
        ``probe(key, fresh_lo, FAR_FUTURE)`` would answer, found in the same
        pass over the versions.
        """
        return self._lookup(key, lo, hi, fresh_lo)

    def _lookup(self, key: str, lo: int, hi: int, fresh_lo: int) -> LookupResult:
        """:meth:`lookup`, for a caller that holds the lock.

        The definition is :meth:`CacheEntry.effective_interval` intersected
        with the request (``tests/test_cache_server.py`` holds this method to
        a reference written that way); what runs is :meth:`_newest_usable`,
        which compares the bounds in place.  A hit builds at most one
        :class:`Interval`, the effective interval of a still-valid winner.
        """
        self.stats.lookups += 1
        best, best_lo, best_hi, fresh = self._newest_usable(key, lo, hi, fresh_lo)
        if best is not None:
            self.stats.hits += 1
            best.last_access = self.clock.now()
            self._touch(key)
            raw_interval = best.interval
            return LookupResult(
                hit=True,
                key=key,
                value=best.value,
                # A truncated entry's interval is exact, and is handed out as
                # both — the same object: the wire codecs preserve that
                # sharing, and transport parity compares re-pickled results.
                interval=(
                    Interval(best_lo, best_hi) if raw_interval.hi is None else raw_interval
                ),
                raw_interval=raw_interval,
                tags=best.tags,
                key_ever_stored=True,
            )

        self.stats.misses += 1
        return LookupResult(
            hit=False,
            key=key,
            key_ever_stored=key in self._keys_ever_stored,
            fresh_version_exists=fresh,
        )

    def multi_lookup(self, requests: Sequence[LookupRequest]) -> List[LookupResult]:
        """Answer a batch of lookups in one call, in request order.

        Each :class:`LookupRequest` is served exactly as :meth:`lookup`
        would serve it, so batching never changes results or statistics —
        it only saves round trips on a networked transport.  The lock is
        taken once for the batch, not once more per request.
        """
        with self._lock:
            return [
                self._lookup(request.key, request.lo, request.hi, request.fresh_lo)
                for request in requests
            ]

    @_locked
    def probe(self, key: str, lo: int, hi: int) -> bool:
        """Check whether a lookup over ``[lo, hi]`` would hit.

        Unlike :meth:`lookup`, a probe does not count towards hit/miss
        statistics and does not touch LRU ordering.  A probe over a
        transaction's staleness window, ``(fresh_lo, FAR_FUTURE)``, is the
        definition of the ``fresh_version_exists`` flag a missed lookup
        carries.
        """
        return self._newest_usable(key, lo, hi, 0)[0] is not None

    def _newest_usable(
        self, key: str, lo: int, hi: int, fresh_lo: int
    ) -> Tuple[Optional[CacheEntry], int, int, bool]:
        """The version of ``key`` a lookup over ``[lo, hi]`` returns.

        Answers ``(entry, effective lo, effective hi, fresh)``: the usable
        version with the greatest lower bound (``None`` when no version's
        effective interval meets the request), its effective bounds, and
        whether some *other* version reaches past ``fresh_lo``.  Touches
        neither statistics nor LRU order.
        """
        watermark = self.last_invalidation_timestamp
        request_end = hi + 1
        if request_end < lo:
            raise ValueError(f"invalid lookup bounds: hi={hi} < lo={lo}")
        best: Optional[CacheEntry] = None
        best_lo = best_hi = 0
        fresh = False
        for entry in self._entries.get(key, ()):
            interval = entry.interval
            e_lo = interval.lo
            e_hi = interval.hi
            if e_hi is None:
                # Still valid: it has survived every invalidation processed
                # so far, so it is good through the watermark, and no further.
                e_hi = (e_lo if e_lo > watermark else watermark) + 1
            # Non-empty intersection with [lo, hi + 1): max(lo) < min(hi).
            if (e_lo if e_lo > lo else lo) < (e_hi if e_hi < request_end else request_end):
                if best is None or e_lo > best_lo:
                    best = entry
                    best_lo = e_lo
                    best_hi = e_hi
            elif not fresh:
                # An empty interval reaches nowhere.
                fresh = e_hi > fresh_lo and e_hi > e_lo
        return best, best_lo, best_hi, fresh

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    @_locked
    def put(
        self,
        key: str,
        value: object,
        interval: Interval,
        tags: FrozenSet[InvalidationTag] = frozenset(),
    ) -> bool:
        """Insert one version of ``key``.

        Returns True if the entry was stored.  Entries whose interval is
        already covered by an existing version are rejected (they add no
        information).  A still-valid entry whose tags were already
        invalidated at a timestamp *after* its lower bound is truncated on
        insert, which closes the insert/invalidate race window; one whose
        only matching invalidations are at or before its lower bound is
        stored still valid, because it was read from those commits'
        results (:func:`_can_end`).
        """
        if interval.empty:
            self.stats.rejected_insertions += 1
            return False

        if interval.unbounded and tags:
            # The insert/invalidate race: this still-valid entry was read
            # before an invalidation of its tags that the server has already
            # processed.  Truncate at the *first* invalidation after the
            # entry's birth — truncating at the latest one would claim
            # validity for every intermediate version, which concurrent
            # writers (several commits between a transaction's query and its
            # cache insert) turn into observable mixed-snapshot reads.
            first = self._first_invalidation_after(tags, interval.lo)
            if first is not None:
                interval = Interval(interval.lo, first)

        versions = self._entries.setdefault(key, [])
        for existing in versions:
            if existing.interval.contains_interval(interval):
                self.stats.rejected_insertions += 1
                if not self._entries[key]:
                    del self._entries[key]
                return False

        entry = CacheEntry(
            key=key,
            value=value,
            interval=interval,
            tags=tags if interval.unbounded else frozenset(),
            size=estimate_size(key, value),
            last_access=self.clock.now(),
        )
        versions.append(entry)
        versions.sort(key=lambda e: e.interval.lo)
        self._used_bytes += entry.size
        self._keys_ever_stored.add(key)
        self._touch(key)
        if entry.still_valid:
            self._index_tags(key, entry.tags)
        self.stats.insertions += 1
        self._enforce_capacity()
        return True

    # ------------------------------------------------------------------
    # Key migration (cluster elasticity)
    # ------------------------------------------------------------------
    @_locked
    def extract_entries(
        self, cursor: Optional[str] = None, limit: int = 64
    ) -> Tuple[List[EntryRecord], Optional[str]]:
        """Page through this node's entries for migration.

        Returns up to ``limit`` *keys'* worth of entry versions (all versions
        of a key travel in the same chunk so a key is never half-migrated)
        as :class:`EntryRecord` objects, plus a cursor: pass it back to
        resume after the last returned key, or ``None`` when the scan is
        complete.  Extraction is non-destructive — entries stay on this node
        until the coordinator explicitly discards them — and does not touch
        hit/miss statistics or LRU ordering.
        """
        if limit < 1:
            raise ValueError("limit must be positive")
        # One linear scan + a bounded heap per page instead of re-sorting the
        # whole key set; paging stays stateless across calls (no server-side
        # scan handle to leak or invalidate), which a migration coordinator
        # retrying against a live node depends on.
        candidates = (
            key for key in self._entries if cursor is None or key > cursor
        )
        chunk = heapq.nsmallest(limit + 1, candidates)
        more = len(chunk) > limit
        chunk = chunk[:limit]
        records = [
            EntryRecord(key=key, value=entry.value, interval=entry.interval, tags=entry.tags)
            for key in chunk
            for entry in self._entries[key]
        ]
        self.stats.entries_extracted += len(records)
        next_cursor = chunk[-1] if more else None
        return records, next_cursor

    @_locked
    def install_entries(self, records: Sequence[EntryRecord]) -> int:
        """Install migrated entry versions; returns how many were stored.

        Installation goes through :meth:`put`, so all of its semantics apply:
        interval-covered duplicates are rejected, and a still-valid record
        whose tags this node has already seen invalidated after its lower
        bound is truncated on insert (the same mechanism that closes the
        insert/invalidate race protects a record that crossed the wire
        during a migration).
        """
        installed = 0
        for record in records:
            if self.put(record.key, record.value, record.interval, record.tags):
                installed += 1
        self.stats.entries_installed += installed
        return installed

    @_locked
    def discard_keys(self, keys: Sequence[str]) -> int:
        """Drop every version of the given keys (post-migration cleanup).

        Used by the migration coordinator after the new owner confirmed the
        install, so the old owner's capacity is not wasted on entries the
        ring will never route to it again.  Returns the number of entry
        versions removed.  The keys remain in the ever-stored set: the node
        *did* store them, and routing never consults this node for them
        again anyway.
        """
        removed = 0
        for key in keys:
            entries = self._entries.pop(key, None)
            if entries is None:
                continue
            for entry in entries:
                self._drop_entry(entry)
            removed += len(entries)
            self._lru.pop(key, None)
        self.stats.entries_discarded += removed
        return removed

    # ------------------------------------------------------------------
    # Invalidation stream
    # ------------------------------------------------------------------
    @_locked
    def process_invalidation(self, message: InvalidationMessage) -> None:
        """Apply one invalidation message from the database's stream."""
        self.stats.invalidation_messages += 1
        timestamp = message.timestamp
        affected_keys: Set[str] = set()
        for tag in message.tags:
            self._record_tag_invalidation(tag, timestamp)
            if tag.is_wildcard:
                affected_keys.update(self._table_index.get(tag.table, ()))
            else:
                affected_keys.update(self._tag_index.get(tag, ()))
                # A precise update also affects entries that depend on a
                # wildcard (scan) of the same table.
                affected_keys.update(self._wildcard_index.get(tag.table, ()))
        for key in affected_keys:
            self._truncate_still_valid(key, timestamp)
        if timestamp > self.last_invalidation_timestamp:
            self.last_invalidation_timestamp = timestamp

    @_locked
    def note_timestamp(self, timestamp: int) -> None:
        """Advance the last-invalidation watermark without any tags.

        The benchmark driver uses this to model update transactions whose
        invalidation message carried no tags relevant to this node; the
        watermark still moves so still-valid entries can be relied on through
        the new timestamp.
        """
        if timestamp > self.last_invalidation_timestamp:
            self.last_invalidation_timestamp = timestamp

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    @_locked
    def evict_stale(self, oldest_useful_timestamp: int) -> int:
        """Drop entries that ended before ``oldest_useful_timestamp``.

        Such entries cannot satisfy any transaction within the staleness
        limit and are eagerly removed (paper section 4.1).  Returns the
        number of entries removed.
        """
        removed = 0
        for key in list(self._entries.keys()):
            keep: List[CacheEntry] = []
            for entry in self._entries[key]:
                hi = entry.interval.hi
                if hi is not None and hi <= oldest_useful_timestamp:
                    self._drop_entry(entry)
                    removed += 1
                else:
                    keep.append(entry)
            if keep:
                self._entries[key] = keep
            else:
                del self._entries[key]
                self._lru.pop(key, None)
        self._prune_invalidation_histories(oldest_useful_timestamp)
        self.stats.stale_evictions += removed
        return removed

    @_locked
    def clear(self) -> None:
        """Remove every entry (used between benchmark configurations)."""
        self._entries.clear()
        self._lru.clear()
        self._tag_index.clear()
        self._wildcard_index.clear()
        self._table_index.clear()
        self._used_bytes = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _touch(self, key: str) -> None:
        self._lru.pop(key, None)
        self._lru[key] = None

    def _enforce_capacity(self) -> None:
        while self._used_bytes > self.capacity_bytes and self._lru:
            victim_key, _ = self._lru.popitem(last=False)
            for entry in self._entries.pop(victim_key, []):
                self._drop_entry(entry)
                self.stats.lru_evictions += 1

    def _drop_entry(self, entry: CacheEntry) -> None:
        self._used_bytes -= entry.size
        if self._used_bytes < 0:
            self._used_bytes = 0
        self._unindex_tags(entry.key, entry.tags)

    def _index_tags(self, key: str, tags: FrozenSet[InvalidationTag]) -> None:
        for tag in tags:
            if tag.is_wildcard:
                self._wildcard_index.setdefault(tag.table, set()).add(key)
            else:
                self._tag_index.setdefault(tag, set()).add(key)
            self._table_index.setdefault(tag.table, set()).add(key)

    def _unindex_tags(self, key: str, tags: FrozenSet[InvalidationTag]) -> None:
        for tag in tags:
            if tag.is_wildcard:
                _discard_from(self._wildcard_index, tag.table, key)
            else:
                _discard_from(self._tag_index, tag, key)
            _discard_from(self._table_index, tag.table, key)

    def _truncate_still_valid(self, key: str, timestamp: int) -> None:
        """End every still-valid version of ``key`` born before ``timestamp``.

        A version born at or after it stays still valid with its tags
        indexed: its ``put`` beat the invalidation of the commit it was read
        from (or of an older one) to this node — a deferred bus, concurrent
        clients — and it already reflects that commit.
        """
        spared: List[CacheEntry] = []
        for entry in self._entries.get(key, ()):
            if not entry.still_valid:
                continue
            if _can_end(timestamp, entry.interval.lo):
                self._unindex_tags(key, entry.tags)
                entry.interval = entry.interval.truncate(timestamp)
                entry.tags = frozenset()
                self.stats.entries_invalidated += 1
            else:
                spared.append(entry)
        # The indexes are per key, not per version: a truncated sibling took
        # the tags it shared with a spared version out with it.
        for entry in spared:
            self._index_tags(key, entry.tags)

    def _first_invalidation_after(
        self, tags: FrozenSet[InvalidationTag], lo: int
    ) -> Optional[int]:
        """Earliest processed invalidation of ``tags`` that can end ``[lo, inf)``.

        This is the exact truncation point for a late insert: the entry was
        valid at ``lo`` *with the commit at ``lo`` applied* (the database
        computed that) and stopped being current no later than the first
        subsequent invalidation of any of its dependencies.  Returns ``None``
        when no such invalidation has been processed (the entry is genuinely
        still valid here).
        """
        first: Optional[int] = None
        for tag in tags:
            histories = []
            if tag.is_wildcard:
                # Any invalidation on the table affects a wildcard dependency.
                histories.extend(
                    history
                    for other, history in self._tag_invalidations.items()
                    if other.table == tag.table
                )
                if tag.table in self._table_invalidations:
                    histories.append(self._table_invalidations[tag.table])
            else:
                if tag in self._tag_invalidations:
                    histories.append(self._tag_invalidations[tag])
                if tag.table in self._table_invalidations:
                    histories.append(self._table_invalidations[tag.table])
            for history in histories:
                # The first member t with _can_end(t, lo): sorted, so bisect.
                index = bisect.bisect_right(history, lo)
                if index < len(history) and (first is None or history[index] < first):
                    first = history[index]
        return first

    def _record_tag_invalidation(self, tag: InvalidationTag, timestamp: int) -> None:
        if tag.is_wildcard:
            history = self._table_invalidations.setdefault(tag.table, [])
        else:
            history = self._tag_invalidations.setdefault(tag, [])
        # The stream is timestamp-ordered, so this is almost always a plain
        # append; the bisect covers a message replayed or re-delivered late
        # (inserted once, O(log n) dedup — the history is sorted).
        if not history or timestamp > history[-1]:
            history.append(timestamp)
        else:
            index = bisect.bisect_left(history, timestamp)
            if index == len(history) or history[index] != timestamp:
                history.insert(index, timestamp)

    def _prune_invalidation_histories(self, oldest_useful_timestamp: int) -> None:
        """Drop history prefixes no lookup can reach (called by evict_stale).

        The largest pruned timestamp is kept as each history's head: a late
        insert born before the horizon then truncates to at most that
        timestamp — i.e. to an interval that is itself entirely below the
        horizon and unreachable — instead of overclaiming up to the next
        retained invalidation.  The head is an invalidation like any other:
        an insert born *at* it reflects it and is bounded by the next one.
        """
        for histories in (self._tag_invalidations, self._table_invalidations):
            for history in histories.values():
                index = bisect.bisect_right(history, oldest_useful_timestamp)
                if index > 1:
                    del history[: index - 1]
