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
The eager part costs what it removes: every version that has an upper bound
waits in a heap on that bound, every recorded invalidation message in a
queue on its timestamp, and :meth:`CacheServer.evict_stale` pops both up to
the horizon instead of walking the store and every history.

Thread safety
-------------
:class:`CacheServer` is fully thread-safe: one reentrant lock per server
serializes every public operation, so the in-process transport's many client
threads may call the same server concurrently.  A networked node calls it
from one thread only, the loop that serves every frame in arrival order (see
:mod:`repro.cache.netserver`), which is why the store walks a coordinator
drives — :meth:`CacheServer.extract_entries`, :meth:`CacheServer.key_digest`
and :meth:`CacheServer.keys_in_range` — serve one bounded page per call
(:data:`SCAN_PAGE_KEYS`).  A single per-server lock was chosen
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
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.cache.entry import (
    CacheEntry,
    EntryRecord,
    LookupRequest,
    LookupResult,
    estimate_size,
)
from repro.cache.hashring import HASH_SPACE, _hash as _ring_hash
from repro.comm.multicast import InvalidationMessage
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval

__all__ = ["CacheServer", "CacheServerStats", "SCAN_PAGE_KEYS"]

#: Keys per page of :meth:`CacheServer.key_digest` and
#: :meth:`CacheServer.keys_in_range`, and the most one page of
#: :meth:`CacheServer.extract_entries` covers whatever limit a caller asks
#: for.  Hashing a key costs about 1.9 us, so a digest page is about 2 ms of
#: a networked node's one loop thread.
SCAN_PAGE_KEYS = 1024


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


def _keys_of(bucket) -> Iterable[str]:
    """The keys of a ``_tag_index`` bucket: a lone key or a set of them."""
    if bucket is None:
        return ()
    if type(bucket) is str:
        return (bucket,)
    return bucket


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
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.stats = CacheServerStats()
        #: Serializes every public operation (see "Thread safety" above).
        #: Reentrant so composite operations (install_entries -> put) nest.
        self._lock = threading.RLock()
        #: key -> versions of that key, kept sorted by interval lower bound.
        self._entries: Dict[str, List[CacheEntry]] = {}
        #: The stored keys, sorted, while a store walk is under way (see
        #: ``_page``), and how much of the list is sorted; None between walks.
        self._walk_keys: Optional[List[str]] = None
        self._walk_sorted = 0
        #: LRU ordering over keys (most recently used last): exactly the
        #: keys of ``_entries``.
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        #: precise tag -> the keys of still-valid entries depending on it: a
        #: lone key bare, two or more as a set.  Most tags name one row, read
        #: by one cached call, and a bare key costs no set.
        self._tag_index: Dict[InvalidationTag, Union[str, Set[str]]] = {}
        #: table name -> keys of still-valid entries holding that table's
        #: wildcard tag (a precise invalidation affects these as well).
        #: A wildcard invalidation of a table reaches these and the keys of
        #: the table's precise tags in ``_tag_index``.
        self._wildcard_index: Dict[str, Set[str]] = {}
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
        #: table name -> the precise-tag histories of that table, filed as
        #: each history is created: a wildcard dependency is ended by any of
        #: them, and asks these rather than every history of every table.
        self._tag_histories_of_table: Dict[str, List[List[int]]] = {}
        #: min-heap of ``(upper bound, key)``, one item per version that was
        #: stored with, or truncated to, an upper bound.  It names the
        #: version instead of holding it, so a version dropped some other
        #: way is not kept alive; its item is a ghost, skipped when popped.
        self._expiring: List[Tuple[int, str]] = []
        #: stored versions that have an upper bound; what the heap holds
        #: beyond them is ghosts, which :meth:`_sift_ghosts` keeps in check.
        self._bounded_versions = 0
        #: ``(timestamp, histories it was added to)`` per recorded message,
        #: ascending by timestamp: what pruning has still to look at.
        self._unpruned: Deque[Tuple[int, List[List[int]]]] = deque()
        self._used_bytes = 0

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

    def _page(self, cursor: Optional[str], limit: int) -> Tuple[List[str], Optional[str]]:
        """The next stored keys after ``cursor``, ascending, and the cursor
        that resumes after them (``None`` once the walk is done).

        At most ``limit`` keys, and never more than :data:`SCAN_PAGE_KEYS`:
        the limit can come from a peer.  Paging is stateless to the caller
        (no scan handle to leak or invalidate, which a coordinator retrying
        against a live node depends on); what the server keeps is a sorted
        copy of its key set for the walk's duration, so a page is a bisect
        and a slice instead of a pass over every key.  A walk's first page
        sorts; a key stored meanwhile is appended to the copy by :meth:`put`
        and merged in by the next page's sort (timsort merges a sorted run
        with a short tail in linear time); a key dropped meanwhile is
        skipped where it is met.  The copy goes when a walk ends.
        """
        if limit < 1:
            raise ValueError("limit must be positive")
        limit = min(limit, SCAN_PAGE_KEYS)
        keys = self._walk_keys
        if keys is None or cursor is None:
            keys = self._walk_keys = sorted(self._entries)
        elif len(keys) > self._walk_sorted:
            keys.sort()
        self._walk_sorted = len(keys)
        entries = self._entries
        position = 0 if cursor is None else bisect.bisect_right(keys, cursor)
        chunk: List[str] = []
        previous = cursor
        while position < len(keys) and len(chunk) <= limit:
            key = keys[position]
            position += 1
            # A key dropped and stored again is in the copy twice, side by side.
            if key != previous and key in entries:
                chunk.append(key)
                previous = key
        if len(chunk) > limit:
            del chunk[limit:]
            return chunk, chunk[-1]
        self._walk_keys = None
        return chunk, None

    @_locked
    def key_digest(
        self,
        arcs: Sequence[Tuple[int, int]],
        cursor: Optional[str] = None,
    ) -> Tuple[List[Tuple[int, int, int]], Optional[str]]:
        """One page of per-arc interval-set digests of the stored keys (anti-entropy).

        For each hash-space arc ``[lo, hi)`` (wrapping allowed; ``lo == hi``
        is the full circle) this folds every key of the page whose ring
        point falls inside the arc into an order-independent triple
        ``(count, xor, sum mod 2^64)`` of the keys' 64-bit ring hashes — a
        Merkle-style leaf digest over the arc's key *set*.  The page is the
        :data:`SCAN_PAGE_KEYS` keys after ``cursor`` that
        :meth:`extract_entries` would page, and only they are hashed; the
        fold is commutative, so folding every page's triples per arc (see
        :meth:`repro.cache.membership.ClusterMembership.repair`) gives the
        digest of the whole store.  Two replicas of an arc that hold the
        same key set report the same triple, so repair planning can prove an
        arc clean without shipping ``keys()`` inventories.  Reconciliation
        stays key-granular (matching :meth:`install_entries` semantics), so
        keys — not values or versions — are what the digest covers.

        A paged digest is not a snapshot: a key stored or dropped between
        two pages is counted by whichever page it falls in, or by none.
        Repair is best effort across nodes anyway, and a difference it
        misses now, the next sweep sees.

        Arcs within one call must be disjoint (ring segments are); a key on
        an arc boundary belongs to the arc it opens, mirroring
        :func:`repro.cache.hashring.range_contains`.
        """
        segments, starts, full_circle = _index_arcs(arcs)
        chunk, next_cursor = self._page(cursor, SCAN_PAGE_KEYS)
        digests = [[0, 0, 0] for _ in arcs]
        for key in chunk:
            point = _ring_hash(key)
            index = _locate_arc(segments, starts, point)
            for target in full_circle if index is None else (*full_circle, index):
                bucket = digests[target]
                bucket[0] += 1
                bucket[1] ^= point
                bucket[2] = (bucket[2] + point) % HASH_SPACE
        return [tuple(bucket) for bucket in digests], next_cursor

    @_locked
    def keys_in_range(
        self,
        arcs: Sequence[Tuple[int, int]],
        cursor: Optional[str] = None,
    ) -> Tuple[List[str], Optional[str]]:
        """One page of the stored keys whose ring points fall inside the arcs.

        The targeted follow-up to :meth:`key_digest`: once a digest
        mismatch marks an arc dirty, repair fetches only that arc's keys.
        Pages like :meth:`key_digest` — the page's keys that lie in the
        arcs, sorted, and the cursor to resume at — and is stats-free and
        LRU-free.  A page can hold no key of the arcs and still not be the
        last.
        """
        segments, starts, full_circle = _index_arcs(arcs)
        chunk, next_cursor = self._page(cursor, SCAN_PAGE_KEYS)
        if not full_circle:
            chunk = [
                key for key in chunk if _locate_arc(segments, starts, _ring_hash(key)) is not None
            ]
        return chunk, next_cursor

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
            # Safe without a membership test: a key with versions is in
            # the LRU order.
            self._lru.move_to_end(key)
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
        tags: Iterable[InvalidationTag] = (),
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

        A still-valid entry keeps ``tuple(tags)``, whatever collection they
        came in; a bounded one keeps none.
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

        versions = self._entries.get(key, ())
        for existing in versions:
            if existing.interval.contains_interval(interval):
                self.stats.rejected_insertions += 1
                return False

        entry = CacheEntry(
            key=key,
            value=value,
            interval=interval,
            tags=tuple(tags) if interval.unbounded else (),
            size=estimate_size(key, value),
        )
        if not versions:
            # The key enters the store only once its entry exists: a put
            # that raised above leaves nothing for a store walk to sort.
            versions = self._entries[key] = []
            walk = self._walk_keys
            if walk is not None:
                # A store walk is under way: its next page sorts this key in.
                walk.append(key)
                if len(walk) > 2 * len(self._entries) + SCAN_PAGE_KEYS:
                    self._walk_keys = None  # an abandoned walk; a later page re-sorts
        # Ascending by lower bound, after its equals: walk back from the end,
        # where a newer version belongs.
        index = len(versions)
        lo = interval.lo
        while index and versions[index - 1].interval.lo > lo:
            index -= 1
        versions.insert(index, entry)
        if interval.hi is not None:
            heapq.heappush(self._expiring, (interval.hi, key))
            self._bounded_versions += 1
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
        of a key travel in the same chunk so a key is never half-migrated;
        never more than :data:`SCAN_PAGE_KEYS` keys) as
        :class:`EntryRecord` objects, plus a cursor: pass it back to
        resume after the last returned key, or ``None`` when the scan is
        complete.  Extraction is non-destructive — entries stay on this node
        until the coordinator explicitly discards them — and does not touch
        hit/miss statistics or LRU ordering.
        """
        chunk, next_cursor = self._page(cursor, limit)
        records = [
            EntryRecord(key=key, value=entry.value, interval=entry.interval, tags=entry.tags)
            for key in chunk
            for entry in self._entries[key]
        ]
        self.stats.entries_extracted += len(records)
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
        self._sift_ghosts()
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
        grown = self._record_invalidations(message.tags, timestamp)
        tag_index = self._tag_index
        for tag in message.tags:
            if tag.is_wildcard:
                # Every entry with a tag on the table: a walk of the precise
                # tags, on a message no workload sends.
                table = tag.table
                for precise, bucket in tag_index.items():
                    if precise.table == table:
                        affected_keys.update(_keys_of(bucket))
            else:
                affected_keys.update(_keys_of(tag_index.get(tag)))
            # Either kind also affects entries that depend on a wildcard
            # (scan) of the same table.
            affected_keys.update(self._wildcard_index.get(tag.table, ()))
        if grown:
            unpruned = self._unpruned
            if not unpruned or unpruned[-1][0] <= timestamp:
                unpruned.append((timestamp, grown))
            else:
                self._queue_late(timestamp, grown)
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
        """Drop entries that ended at or before ``oldest_useful_timestamp``.

        Such entries cannot satisfy any transaction within the staleness
        limit and are eagerly removed (paper section 4.1).  Returns the
        number of entries removed.

        The versions with an upper bound wait in ``_expiring``, a heap on
        that bound, so this pops the ones the horizon has reached and looks
        at nothing else: the cost is the versions removed, not the versions
        stored.  An item whose version LRU eviction or :meth:`discard_keys`
        already dropped finds nothing to remove and is skipped.
        """
        expiring = self._expiring
        entries = self._entries
        removed = 0
        while expiring and expiring[0][0] <= oldest_useful_timestamp:
            key = heapq.heappop(expiring)[1]
            versions = entries.get(key)
            if versions is None:
                continue
            # Every version of the key the horizon has reached goes now; the
            # items of the others that went become ghosts.
            keep: List[CacheEntry] = []
            for entry in versions:
                hi = entry.interval.hi
                if hi is not None and hi <= oldest_useful_timestamp:
                    self._drop_entry(entry)
                    removed += 1
                else:
                    keep.append(entry)
            if keep:
                entries[key] = keep
            else:
                del entries[key]
                self._lru.pop(key, None)
        self._prune_invalidation_histories(oldest_useful_timestamp)
        self.stats.stale_evictions += removed
        return removed

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
            self._sift_ghosts()

    def _drop_entry(self, entry: CacheEntry) -> None:
        self._used_bytes -= entry.size
        if self._used_bytes < 0:
            self._used_bytes = 0
        if entry.interval.hi is not None:
            self._bounded_versions -= 1
        if entry.tags:
            self._unindex_tags(entry.key, entry.tags)

    def _sift_ghosts(self) -> None:
        """Keep the expiry heap to the versions that can still expire.

        LRU eviction and :meth:`discard_keys` leave their victims' items on
        the heap as ghosts, which :meth:`evict_stale` pops only when the
        horizon reaches them.  Called where ghosts are made: should they
        have come to outnumber the versions the heap is for, the items that
        name no stored version are sifted out (paid for by the evictions
        that made it necessary), so the heap never outgrows the store.
        """
        expiring = self._expiring
        if len(expiring) > 2 * self._bounded_versions + 16:
            entries = self._entries
            expiring[:] = [
                item
                for item in set(expiring)
                if any(entry.interval.hi == item[0] for entry in entries.get(item[1], ()))
            ]
            heapq.heapify(expiring)

    def _index_tags(self, key: str, tags: Iterable[InvalidationTag]) -> None:
        tag_index = self._tag_index
        for tag in tags:
            if tag.is_wildcard:
                self._wildcard_index.setdefault(tag.table, set()).add(key)
                continue
            bucket = tag_index.get(tag)
            if bucket is None:
                tag_index[tag] = key
            elif type(bucket) is str:
                if bucket != key:
                    tag_index[tag] = {bucket, key}
            else:
                bucket.add(key)

    def _unindex_tags(self, key: str, tags: Iterable[InvalidationTag]) -> None:
        tag_index = self._tag_index
        for tag in tags:
            if tag.is_wildcard:
                _discard_from(self._wildcard_index, tag.table, key)
                continue
            bucket = tag_index.get(tag)
            if bucket is None:
                continue
            if type(bucket) is str:
                if bucket == key:
                    del tag_index[tag]
            else:
                bucket.discard(key)
                if len(bucket) == 1:
                    tag_index[tag] = bucket.pop()

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
                entry.tags = ()
                heapq.heappush(self._expiring, (timestamp, key))
                self._bounded_versions += 1
                self.stats.entries_invalidated += 1
            else:
                spared.append(entry)
        # The indexes are per key, not per version: a truncated sibling took
        # the tags it shared with a spared version out with it.
        for entry in spared:
            self._index_tags(key, entry.tags)

    def _first_invalidation_after(
        self, tags: Iterable[InvalidationTag], lo: int
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
                histories.extend(self._tag_histories_of_table.get(tag.table, ()))
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

    def _record_invalidations(
        self, tags: Sequence[InvalidationTag], timestamp: int
    ) -> List[List[int]]:
        """Add ``timestamp`` to the history of each of a message's ``tags``.

        Answers the histories that lengthened it (a replay lengthens none):
        what the message is queued with for pruning.
        """
        grown: List[List[int]] = []
        for tag in tags:
            if tag.is_wildcard:
                history = self._table_invalidations.setdefault(tag.table, [])
            else:
                history = self._tag_invalidations.get(tag)
                if history is None:
                    history = self._tag_invalidations[tag] = []
                    self._tag_histories_of_table.setdefault(tag.table, []).append(history)
            # The stream is timestamp-ordered, so this is almost always a
            # plain append; the bisect covers a message replayed or
            # re-delivered late (inserted once, O(log n) dedup — the history
            # is sorted).
            if not history or timestamp > history[-1]:
                history.append(timestamp)
            else:
                index = bisect.bisect_left(history, timestamp)
                if index != len(history) and history[index] == timestamp:
                    continue
                history.insert(index, timestamp)
            grown.append(history)
        return grown

    def _queue_late(self, timestamp: int, grown: List[List[int]]) -> None:
        """File a message delivered out of order at its place in ``_unpruned``.

        Like the histories, the queue ascends and the stream appends to it;
        a replayed or delayed message is walked back to where its timestamp
        belongs, so pruning to a horizon meets it when a prune of every
        history would have.
        """
        unpruned = self._unpruned
        index = len(unpruned)
        while index and unpruned[index - 1][0] > timestamp:
            index -= 1
        unpruned.insert(index, (timestamp, grown))

    def _prune_invalidation_histories(self, oldest_useful_timestamp: int) -> None:
        """Drop history prefixes no lookup can reach (called by evict_stale).

        The largest pruned timestamp is kept as each history's head: a late
        insert born before the horizon then truncates to at most that
        timestamp — i.e. to an interval that is itself entirely below the
        horizon and unreachable — instead of overclaiming up to the next
        retained invalidation.  The head is an invalidation like any other:
        an insert born *at* it reflects it and is bounded by the next one.

        Only a history that gained a member at or below the horizon since
        it was last pruned can have a prefix to drop, and ``_unpruned``
        names exactly those, one record per message: this pops the records
        the horizon has reached and bisects the histories they name, not
        every history there is.  Heads are the one thing kept for ever — one
        integer per distinct tag ever invalidated: without an ``as_of`` on
        ``put`` the node cannot tell a late insert born before a head, which
        the head must still truncate, from one born after it.
        """
        unpruned = self._unpruned
        while unpruned and unpruned[0][0] <= oldest_useful_timestamp:
            for history in unpruned.popleft()[1]:
                index = bisect.bisect_right(history, oldest_useful_timestamp)
                if index > 1:
                    del history[: index - 1]
