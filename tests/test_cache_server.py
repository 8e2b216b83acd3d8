"""Tests for the versioned cache server."""

from __future__ import annotations

import random

import pytest

from repro.cache.entry import EntryRecord, LookupRequest, LookupResult
from repro.cache.server import CacheServer
from repro.comm.multicast import InvalidationMessage
from repro.core.transaction import CacheableFrame
from repro.db.invalidation import InvalidationTag
from repro.interval import Interval


@pytest.fixture
def server():
    return CacheServer(name="c0", capacity_bytes=1024 * 1024)


def tag(value, column="id", table="users"):
    return InvalidationTag.key(table, column, value)


def invalidate(server, ts, *tags):
    server.process_invalidation(InvalidationMessage(timestamp=ts, tags=tuple(tags)))


class TestVersionedLookup:
    def test_miss_on_empty_cache(self, server):
        result = server.lookup("k", 0, 10)
        assert not result.hit
        assert not result.key_ever_stored

    def test_hit_within_interval(self, server):
        server.put("k", "value", Interval(3, 8))
        result = server.lookup("k", 4, 6)
        assert result.hit
        assert result.value == "value"
        assert result.interval == Interval(3, 8)

    def test_hit_on_partial_overlap(self, server):
        server.put("k", "value", Interval(3, 8))
        assert server.lookup("k", 0, 3).hit       # 3 is acceptable
        assert server.lookup("k", 7, 20).hit      # 7 is acceptable
        assert not server.lookup("k", 8, 20).hit  # interval excludes 8
        assert not server.lookup("k", 0, 2).hit

    def test_multiple_versions_most_recent_returned(self, server):
        server.put("k", "old", Interval(0, 5))
        server.put("k", "new", Interval(5, 10))
        result = server.lookup("k", 0, 20)
        assert result.value == "new"

    def test_old_version_still_reachable(self, server):
        server.put("k", "old", Interval(0, 5))
        server.put("k", "new", Interval(5, 10))
        assert server.lookup("k", 2, 4).value == "old"

    def test_still_valid_entry_effective_upper_bound(self, server):
        server.put("k", "value", Interval(3), tags=frozenset({tag(1)}))
        # No invalidation processed yet: entry known valid only at [3, 4).
        assert server.lookup("k", 3, 10).interval == Interval(3, 4)
        server.note_timestamp(9)
        assert server.lookup("k", 3, 10).interval == Interval(3, 10)

    def test_lookup_result_reports_key_history(self, server):
        server.put("k", "value", Interval(0, 2))
        result = server.lookup("k", 5, 9)
        assert not result.hit
        assert result.key_ever_stored
        assert result.fresh_version_exists

    def test_probe_does_not_affect_stats(self, server):
        server.put("k", "value", Interval(0, 5))
        before = server.stats.lookups
        assert server.probe("k", 0, 10)
        assert not server.probe("k", 6, 10)
        assert server.stats.lookups == before

    def test_raw_interval_and_tags_returned(self, server):
        tags = frozenset({tag(7)})
        server.put("k", "value", Interval(2), tags=tags)
        server.note_timestamp(5)
        result = server.lookup("k", 2, 5)
        assert result.raw_interval == Interval(2, None)
        assert set(result.tags) == tags


class TestPut:
    def test_empty_interval_rejected(self, server):
        assert not server.put("k", "v", Interval(5, 5))
        assert server.stats.rejected_insertions == 1

    def test_duplicate_covered_interval_rejected(self, server):
        assert server.put("k", "v", Interval(0, 10))
        assert not server.put("k", "v", Interval(2, 8))
        assert server.entry_count == 1

    def test_a_put_that_raises_leaves_the_store_unchanged(self, server):
        """A key the server cannot size raises before anything is stored,
        and leaves no trace that a later walk of the store would sort."""
        server.put("k", "v", Interval(0))
        with pytest.raises(AttributeError):
            server.put(5, "v", Interval(0))
        assert server.keys() == ["k"]
        assert server.keys_in_range([(0, 0)]) == (["k"], None)
        assert server.entry_count == 1

    def test_insert_after_invalidation_is_truncated(self, server):
        """The insert/invalidate race: a stale still-valid insert arriving
        after the invalidation for its tags must not stay valid forever."""
        invalidate(server, 7, tag(1))
        server.put("k", "stale", Interval(3), tags=frozenset({tag(1)}))
        entry = server.versions_of("k")[0]
        assert not entry.still_valid
        assert entry.interval.hi == 7

    def test_insert_truncates_at_first_invalidation_not_latest(self, server):
        """Regression: several invalidations of the same tag before a late
        insert must truncate at the *first* one after the entry's birth.
        Truncating at the latest would claim validity for every intermediate
        version — observable as mixed-snapshot reads once concurrent writers
        can commit between a transaction's query and its cache insert."""
        invalidate(server, 5, tag(1))
        invalidate(server, 9, tag(1))
        server.put("k", "v-from-ts-2", Interval(2), tags=frozenset({tag(1)}))
        entry = server.versions_of("k")[0]
        assert not entry.still_valid
        assert entry.interval.hi == 5  # not 9

    def test_insert_born_at_latest_invalidation_stays_still_valid(self, server):
        """An entry born at 5 was read from the commit at 5, so that
        commit's own invalidation — same tags, same timestamp, usually at
        the node before the reader's put — does not bound it.  (This test
        used to assert ``hi == 6``: the sliver every result read from a
        once-written row was stored as.)"""
        invalidate(server, 5, tag(1))
        tags = frozenset({tag(1)})
        server.put("k", "v-from-ts-5", Interval(5), tags=tags)
        entry = server.versions_of("k")[0]
        assert entry.interval == Interval(5)
        assert set(entry.tags) == tags
        assert _tag_index_as_sets(server) == {tag(1): {"k"}}
        # The next invalidation of the tag is the one that ends it.
        invalidate(server, 8, tag(1))
        assert server.versions_of("k")[0].interval == Interval(5, 8)

    def test_stale_eviction_prunes_histories_without_overclaiming(self, server):
        invalidate(server, 3, tag(1))
        invalidate(server, 6, tag(1))
        invalidate(server, 9, tag(1))
        server.evict_stale(7)
        # The largest pruned timestamp (6) survives as the history head, so
        # a very late insert truncates below the horizon instead of
        # overclaiming up to the next retained invalidation (9).
        server.put("k", "ancient", Interval(1), tags=frozenset({tag(1)}))
        assert server.versions_of("k")[0].interval.hi == 6

    def test_insert_after_unrelated_invalidation_stays_valid(self, server):
        invalidate(server, 7, tag(999))
        server.put("k", "fresh", Interval(3), tags=frozenset({tag(1)}))
        assert server.versions_of("k")[0].still_valid

    def test_insert_after_wildcard_invalidation_is_truncated(self, server):
        invalidate(server, 7, InvalidationTag.wildcard("users"))
        server.put("k", "stale", Interval(3), tags=frozenset({tag(1)}))
        assert not server.versions_of("k")[0].still_valid

    def test_size_accounting(self, server):
        server.put("k", "x" * 100, Interval(0))
        assert server.used_bytes > 100


class TestInvalidationProcessing:
    def test_matching_tag_truncates_entry(self, server):
        server.put("k", "v", Interval(2), tags=frozenset({tag(1)}))
        invalidate(server, 9, tag(1))
        entry = server.versions_of("k")[0]
        assert entry.interval == Interval(2, 9)
        assert server.stats.entries_invalidated == 1

    def test_invalidation_at_birth_leaves_entry_still_valid(self, server):
        """The stream-side twin of the late-insert rule: a put that beats its
        own commit's invalidation to the node (deferred bus, concurrent
        clients) is not truncated to the empty ``[5, 5)`` by it."""
        tags = frozenset({tag(1)})
        server.put("k", "v-from-ts-5", Interval(5), tags=tags)
        invalidate(server, 5, tag(1))
        entry = server.versions_of("k")[0]
        assert entry.interval == Interval(5)
        assert set(entry.tags) == tags
        assert _tag_index_as_sets(server) == {tag(1): {"k"}}
        assert server.stats.entries_invalidated == 0
        invalidate(server, 6, tag(1))
        entry = server.versions_of("k")[0]
        assert entry.interval == Interval(5, 6)
        assert not entry.tags and not server._tag_index
        assert server.stats.entries_invalidated == 1

    def test_spared_version_keeps_the_tags_a_truncated_sibling_shared(self, server):
        """The tag indexes are per key: truncating ``[2, inf)`` must not take
        the key out from under its sibling born at the invalidation."""
        tags = frozenset({tag(1)})
        server.put("k", "new", Interval(7), tags=tags)
        server.put("k", "old", Interval(2), tags=tags)
        invalidate(server, 7, tag(1))
        old, new = server.versions_of("k")
        assert (old.interval, new.interval) == (Interval(2, 7), Interval(7))
        _assert_indexes_match_store(server)
        invalidate(server, 9, tag(1))
        assert server.versions_of("k")[1].interval == Interval(7, 9)

    def test_non_matching_tag_leaves_entry_valid(self, server):
        server.put("k", "v", Interval(2), tags=frozenset({tag(1)}))
        invalidate(server, 9, tag(2))
        assert server.versions_of("k")[0].still_valid

    def test_wildcard_invalidation_hits_precise_dependency(self, server):
        server.put("k", "v", Interval(2), tags=frozenset({tag(1)}))
        invalidate(server, 9, InvalidationTag.wildcard("users"))
        assert not server.versions_of("k")[0].still_valid

    def test_precise_invalidation_hits_wildcard_dependency(self, server):
        """An entry that depends on a scan (wildcard tag) is affected by any
        update to that table."""
        server.put("k", "v", Interval(2), tags=frozenset({InvalidationTag.wildcard("users")}))
        invalidate(server, 9, tag(5))
        assert not server.versions_of("k")[0].still_valid

    def test_invalidation_advances_watermark(self, server):
        invalidate(server, 12, tag(1))
        assert server.last_invalidation_timestamp == 12

    def test_bounded_entries_unaffected(self, server):
        server.put("k", "v", Interval(2, 6))
        invalidate(server, 9, InvalidationTag.wildcard("users"))
        assert server.versions_of("k")[0].interval == Interval(2, 6)

    def test_atomic_invalidations_share_timestamp(self, server):
        server.put("a", "v", Interval(2), tags=frozenset({tag(1)}))
        server.put("b", "v", Interval(3), tags=frozenset({tag(2)}))
        invalidate(server, 9, tag(1), tag(2))
        assert server.versions_of("a")[0].interval.hi == 9
        assert server.versions_of("b")[0].interval.hi == 9

    def test_wildcard_invalidation_ends_every_entry_with_a_tag_on_its_table(self, server):
        """``users:?`` reaches a lone key's tag, a shared tag and a
        ``users:?``-tagged entry alike; it spares other tables, and entries
        born at or after it."""
        users_scan = InvalidationTag.wildcard("users")
        server.put("lone", 1, Interval(2), tags=(tag(1),))
        server.put("shared-a", 2, Interval(2), tags=(tag(2),))
        server.put("shared-b", 3, Interval(3), tags=(tag(2), tag(5, table="items")))
        server.put("scan", 4, Interval(2), tags=(users_scan,))
        server.put("items", 5, Interval(2), tags=(tag(1, table="items"),))
        server.put("items-scan", 6, Interval(2), tags=(InvalidationTag.wildcard("items"),))
        server.put("born-at", 7, Interval(9), tags=(tag(3),))
        server.put("born-after", 8, Interval(10), tags=(users_scan,))
        invalidate(server, 9, users_scan)
        ends = {key: server.versions_of(key)[0].interval.hi for key in server.keys()}
        assert ends == {
            "lone": 9, "shared-a": 9, "shared-b": 9, "scan": 9,
            "items": None, "items-scan": None, "born-at": None, "born-after": None,
        }
        assert server.stats.entries_invalidated == 4
        _assert_indexes_match_store(server)

    def test_a_tags_lone_key_is_kept_bare(self, server):
        """A tag indexes one key as the key itself, switches to a set at its
        second key, back to the bare key at one, and leaves the index with
        its last."""
        server.put("a", 1, Interval(2), tags=(tag(1), tag(2)))
        assert server._tag_index == {tag(1): "a", tag(2): "a"}
        server.put("b", 2, Interval(2), tags=(tag(1),))
        server.put("c", 3, Interval(2), tags=(tag(1),))
        assert server._tag_index == {tag(1): {"a", "b", "c"}, tag(2): "a"}
        invalidate(server, 5, tag(2))
        assert server._tag_index == {tag(1): {"b", "c"}}
        server.discard_keys(["b"])
        assert server._tag_index == {tag(1): "c"}
        server.discard_keys(["c"])
        assert server._tag_index == {}


def _still_valid_entries(server):
    return [
        entry
        for key in server.keys()
        for entry in server.versions_of(key)
        if entry.still_valid
    ]


def _tag_index_as_sets(server):
    """``_tag_index`` with each bucket as a set: a lone key is kept bare."""
    return {
        t: {bucket} if isinstance(bucket, str) else set(bucket)
        for t, bucket in server._tag_index.items()
    }


def _assert_indexes_match_store(server):
    """The two tag indexes hold exactly the still-valid entries' tags."""
    precise, wildcard = {}, {}
    for entry in _still_valid_entries(server):
        for t in entry.tags:
            if t.is_wildcard:
                wildcard.setdefault(t.table, set()).add(entry.key)
            else:
                precise.setdefault(t, set()).add(entry.key)
    assert _tag_index_as_sets(server) == precise
    assert server._wildcard_index == wildcard
    # A tag's lone key is bare, whichever way the tag came to have one.
    assert all(isinstance(b, str) or len(b) > 1 for b in server._tag_index.values())


class TestInvalidationIndexAgainstOracle:
    """The indexed invalidation path against a brute-force scan of the store.

    Truncation is key-granular: an invalidation that overlaps any still-valid
    version of a key truncates every still-valid version of that key born
    before it, so the oracle closes the overlapping entries over their keys
    and keeps those born at or after the invalidation (the generator makes
    records born at ``now`` and ``now + 1``).
    """

    KEYS = [f"k{i}" for i in range(16)]
    TABLES = ("users", "items")

    def _tags(self, rng):
        tags = {
            InvalidationTag.key(rng.choice(self.TABLES), "id", rng.randrange(4))
            for _ in range(rng.randrange(3))
        }
        if rng.random() < 0.3:
            tags.add(InvalidationTag.wildcard(rng.choice(self.TABLES)))
        return frozenset(tags)

    def _record(self, rng, now):
        lo = rng.randrange(max(0, now - 3), now + 2)
        interval = Interval(lo) if rng.random() < 0.8 else Interval(lo, lo + 1 + rng.randrange(3))
        return EntryRecord(rng.choice(self.KEYS), rng.randrange(1000), interval, self._tags(rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_truncated_set_and_indexes_match_brute_force(self, seed):
        rng = random.Random(seed)
        # Room for about ten entries, so puts keep evicting whole keys.
        server = CacheServer(name="c0", capacity_bytes=800)
        now = 1
        for _ in range(600):
            step = rng.random()
            if step < 0.45:
                record = self._record(rng, now)
                server.put(record.key, record.value, record.interval, record.tags)
            elif step < 0.70:
                now += 1
                message_tags = tuple(self._tags(rng)) or (tag(0),)
                before = _still_valid_entries(server)
                hit_keys = {
                    entry.key
                    for entry in before
                    if any(mine.overlaps(theirs) for mine in entry.tags for theirs in message_tags)
                }
                expected = {
                    id(entry)
                    for entry in before
                    if entry.key in hit_keys and entry.interval.lo < now
                }
                invalidate(server, now, *message_tags)
                truncated = {id(entry) for entry in before if not entry.still_valid}
                assert truncated == expected
                assert all(not entry.tags for entry in before if not entry.still_valid)
            elif step < 0.78:
                server.evict_stale(now - rng.randrange(4))
            elif step < 0.86:
                server.discard_keys(rng.sample(self.KEYS, 3))
            elif step < 0.94:
                server.install_entries([self._record(rng, now) for _ in range(4)])
            else:
                server.lookup(rng.choice(self.KEYS), 0, now)
            _assert_indexes_match_store(server)
        assert server.stats.entries_invalidated > 0
        assert server.stats.lru_evictions > 0


# ----------------------------------------------------------------------
# Bounds compared in place, against the interval algebra that defines them
# ----------------------------------------------------------------------
class _DefinitionServer(CacheServer):
    """A cache server whose lookup and probe run the *definitions*.

    A version is usable when its :meth:`CacheEntry.effective_interval`
    intersects the request, asked by building the request ``Interval``, the
    effective interval and their :meth:`Interval.intersect` for every
    version.  ``CacheServer`` compares the same bounds in place; everything
    else (statistics, LRU order, the store) is shared code.
    """

    def _lookup(self, key, lo, hi, fresh_lo):
        self.stats.lookups += 1
        request = Interval(lo, hi + 1)
        best = best_interval = None
        fresh = False
        for entry in self._entries.get(key, ()):
            effective = entry.effective_interval(self.last_invalidation_timestamp)
            if not effective.intersect(request).empty:
                if best_interval is None or effective.lo > best_interval.lo:
                    best, best_interval = entry, effective
            elif not fresh:
                fresh = effective.hi > fresh_lo and not effective.empty
        if best is None:
            self.stats.misses += 1
            return LookupResult(
                hit=False,
                key=key,
                key_ever_stored=key in self._keys_ever_stored,
                fresh_version_exists=fresh,
            )
        self.stats.hits += 1
        self._touch(key)
        return LookupResult(
            hit=True,
            key=key,
            value=best.value,
            interval=best_interval,
            raw_interval=best.interval,
            tags=best.tags,
            key_ever_stored=True,
        )

    def probe(self, key, lo, hi):
        request = Interval(lo, hi + 1)
        with self._lock:
            return any(
                not entry.effective_interval(self.last_invalidation_timestamp)
                .intersect(request)
                .empty
                for entry in self._entries.get(key, ())
            )


class TestLookupAgainstItsDefinitions:
    """Two servers fed one seeded history, one of them the definitions."""

    KEYS = [f"k{i}" for i in range(6)]

    def _pair(self):
        # Room for about a dozen entries: lookups decide who is evicted.
        return (
            CacheServer(name="c0", capacity_bytes=1000),
            _DefinitionServer(name="c0", capacity_bytes=1000),
        )

    @staticmethod
    def _store(server):
        return [
            (entry.key, entry.interval, entry.tags)
            for key in server.keys()
            for entry in server.versions_of(key)
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_version_interval_flag_stats_and_lru_order_agree(self, seed):
        rng = random.Random(seed)
        server, definition = self._pair()
        now = 1
        hits = truncated_hits = flagged = 0
        for _ in range(1500):
            step = rng.random()
            key = rng.choice(self.KEYS)
            if step < 0.20:  # several versions per key: old bounded, new still valid
                # Born up to two commits ahead of the stream this node has
                # seen: invalidations at or before its birth leave such an
                # entry still valid.
                lo = rng.randrange(max(0, now - 6), now + 3)
                if rng.random() < 0.6:
                    put = (key, step, Interval(lo), frozenset({tag(rng.randrange(3))}))
                else:
                    put = (key, step, Interval(lo, lo + rng.randrange(1, 4)))
                assert server.put(*put) == definition.put(*put)
            elif step < 0.30:
                now += 1
                invalidated = tag(rng.randrange(3))
                invalidate(server, now, invalidated)
                invalidate(definition, now, invalidated)
            elif step < 0.36:  # the watermark moves, nothing is truncated
                now += 1
                server.note_timestamp(now)
                definition.note_timestamp(now)
            elif step < 0.40:
                horizon = now - rng.randrange(8)
                assert server.evict_stale(horizon) == definition.evict_stale(horizon)
            elif step < 0.50:
                lo = rng.randrange(max(0, now - 8), now + 2)
                hi = lo + rng.randrange(-1, 5)
                assert server.probe(key, lo, hi) == definition.probe(key, lo, hi)
            else:
                lo = rng.randrange(max(0, now - 8), now + 2)
                hi = lo + rng.randrange(-1, 5)  # hi == lo - 1 is the empty request
                fresh_lo = rng.randrange(max(0, now - 8), now + 2)
                if rng.random() < 0.5:
                    result = server.lookup(key, lo, hi, fresh_lo)
                    expected = definition.lookup(key, lo, hi, fresh_lo)
                else:
                    batch = [LookupRequest(key, lo, hi, fresh_lo), LookupRequest("k0", lo, hi)]
                    result = server.multi_lookup(batch)[0]
                    expected = definition.multi_lookup(batch)[0]
                assert result == expected
                if result.hit:
                    hits += 1
                    (winner,) = [
                        entry
                        for entry in server.versions_of(key)
                        if entry.interval is result.raw_interval
                    ]
                    # The winner's effective interval, by its definition ...
                    assert result.interval == winner.effective_interval(
                        server.last_invalidation_timestamp
                    )
                    # ... which for a truncated winner is the stored object
                    # itself: the wire codecs preserve exactly this sharing.
                    truncated = not winner.still_valid
                    assert (result.interval is result.raw_interval) == truncated
                    assert (expected.interval is expected.raw_interval) == truncated
                    truncated_hits += truncated
                flagged += result.fresh_version_exists
            assert server.stats == definition.stats
            assert list(server._lru) == list(definition._lru)
            assert self._store(server) == self._store(definition)
        assert hits > 100 and truncated_hits > 20 and flagged > 20, (hits, truncated_hits, flagged)
        assert server.stats.lru_evictions > 0 and server.stats.entries_invalidated > 0

    def test_bounds_inverted_past_the_empty_request_are_refused(self, server):
        """``Interval(lo, hi + 1)`` refused them; the in-place compare still does."""
        server.put("k", "value", Interval(3, 8))
        assert not server.lookup("k", 5, 4).hit  # [5, 5): empty, a plain miss
        with pytest.raises(ValueError):
            server.lookup("k", 5, 3)
        with pytest.raises(ValueError):
            server.probe("k", 5, 3)


class TestFrameFoldAgainstIntersect:
    """The client library folds observed intervals the same way: two bounds
    compared in place, one ``Interval`` when the function returns."""

    @pytest.mark.parametrize("seed", range(5))
    def test_accumulate_equals_chained_intersect(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            frame = CacheableFrame("f", "key")
            chained = Interval(0, None)
            assert frame.validity == chained
            for _ in range(rng.randrange(1, 6)):
                lo = rng.randrange(12)
                observed = Interval(lo, None if rng.random() < 0.4 else lo + rng.randrange(6))
                observed_tags = {tag(rng.randrange(3))}
                frame.accumulate(observed, observed_tags)
                chained = chained.intersect(observed)
                # Disjoint observations leave the normalised empty [lo, lo).
                assert frame.validity == chained
                assert frame.tags >= observed_tags


class TestEviction:
    def test_lru_eviction_when_over_capacity(self):
        server = CacheServer(capacity_bytes=2000)
        for i in range(30):
            server.put(f"k{i}", "x" * 100, Interval(0))
        assert server.used_bytes <= 2000
        assert server.stats.lru_evictions > 0
        # The most recently inserted key is still present.
        assert server.lookup("k29", 0, 10).hit

    def test_recently_used_keys_survive(self):
        server = CacheServer(capacity_bytes=3000)
        server.put("hot", "x" * 100, Interval(0))
        for i in range(40):
            server.lookup("hot", 0, 10)
            server.put(f"cold{i}", "x" * 100, Interval(0))
        assert server.lookup("hot", 0, 10).hit

    def test_evictions_are_not_errors(self, server):
        """Evicted entries simply miss later (cache entries are never pinned)."""
        small = CacheServer(capacity_bytes=500)
        small.put("a", "x" * 400, Interval(0))
        small.put("b", "y" * 400, Interval(0))
        assert small.lookup("b", 0, 10).hit
        assert not small.lookup("a", 0, 10).hit
        assert small.lookup("a", 0, 10).key_ever_stored

    def test_evict_stale_removes_expired_versions(self, server):
        server.put("k", "old", Interval(0, 4))
        server.put("k", "new", Interval(4, 9))
        removed = server.evict_stale(5)
        assert removed == 1
        assert not server.lookup("k", 0, 3).hit
        assert server.lookup("k", 4, 8).hit

    def test_evict_stale_keeps_still_valid(self, server):
        server.put("k", "v", Interval(0), tags=frozenset({tag(1)}))
        assert server.evict_stale(100) == 0
        # Still-valid entries survive eager eviction and remain usable once
        # the invalidation watermark catches up to the requested range.
        server.note_timestamp(150)
        assert server.lookup("k", 100, 200).hit is True


class TestStats:
    def test_hit_rate(self, server):
        server.put("k", "v", Interval(0))
        server.lookup("k", 0, 5)
        server.lookup("missing", 0, 5)
        assert server.stats.hits == 1
        assert server.stats.misses == 1
        assert server.stats.hit_rate == pytest.approx(0.5)

    def test_reset(self, server):
        server.put("k", "v", Interval(0))
        server.lookup("k", 0, 5)
        server.stats.reset()
        assert server.stats.lookups == 0
        assert server.stats.insertions == 0
