"""Housekeeping that pops, against housekeeping that walks.

``CacheServer.evict_stale`` pops an expiry heap and a queue of recorded
invalidations; ``Database.newest_timestamp_at_or_before`` bisects two
columns that ``vacuum`` trims.  Their definitions are walks — every version
of every key, every history, every commit — and are kept here as the
reference the ordered structures are driven against in lockstep, over seeded
schedules that mix in everything else that removes a version (LRU eviction,
``discard_keys``) or adds one (``install_entries``, late and replayed
invalidations).

The schedules are meant to have teeth: each of these hand edits to
``cache/server.py`` fails ``test_store_indexes_histories_and_stats_agree``
— the heap keyed on ``lo``; ``<`` for ``<=`` at the horizon; a truncation
not pushed; a ghost not skipped; a history's head dropped.
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.cache.entry import EntryRecord
from repro.cache.server import CacheServer
from repro.clock import ManualClock
from repro.comm.multicast import InvalidationMessage
from repro.db.database import Database
from repro.db.invalidation import InvalidationTag
from repro.db.query import Eq
from repro.db.schema import TableSchema
from repro.interval import Interval

TABLES = ("users", "items")


# ----------------------------------------------------------------------
# The cache node
# ----------------------------------------------------------------------
class _WalkingServer(CacheServer):
    """A cache server whose housekeeping runs the *definitions*.

    ``evict_stale`` walks every version of every key, pruning bisects every
    history there is, and a wildcard dependency asks every history of every
    table — what ``CacheServer`` did before it kept an expiry heap, a queue
    of recorded messages and a per-table file of histories.  Everything
    else is shared code.
    """

    def evict_stale(self, oldest_useful_timestamp):
        with self._lock:
            removed = 0
            for key in list(self._entries):
                keep = []
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

    def _prune_invalidation_histories(self, oldest_useful_timestamp):
        for histories in (self._tag_invalidations, self._table_invalidations):
            for history in histories.values():
                index = bisect.bisect_right(history, oldest_useful_timestamp)
                if index > 1:
                    del history[: index - 1]

    def _first_invalidation_after(self, tags, lo):
        first = None
        for tag in tags:
            histories = []
            if tag.is_wildcard:
                histories.extend(
                    history
                    for other, history in self._tag_invalidations.items()
                    if other.table == tag.table
                )
            elif tag in self._tag_invalidations:
                histories.append(self._tag_invalidations[tag])
            if tag.table in self._table_invalidations:
                histories.append(self._table_invalidations[tag.table])
            for history in histories:
                later = [timestamp for timestamp in history if timestamp > lo]
                if later and (first is None or later[0] < first):
                    first = later[0]
        return first


def _state(server):
    """Everything the two servers must agree on after every step."""
    return {
        "entries": server._entries,
        "lru": list(server._lru),
        "used_bytes": server._used_bytes,
        "tag_index": server._tag_index,
        "wildcard_index": server._wildcard_index,
        "tag_invalidations": server._tag_invalidations,
        "table_invalidations": server._table_invalidations,
        "watermark": server.last_invalidation_timestamp,
        "stats": server.stats,
    }


class TestEvictionAndPruningAgainstTheirDefinitions:
    """Two servers fed one seeded schedule, one of them the definitions."""

    KEYS = [f"k{i}" for i in range(10)]

    @staticmethod
    def _tag(rng):
        table = rng.choice(TABLES)
        if rng.random() < 0.25:
            return InvalidationTag.wildcard(table)
        return InvalidationTag.key(table, "id", rng.randrange(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_store_indexes_histories_and_stats_agree(self, seed):
        rng = random.Random(seed)
        # Room for about fifteen entries, so LRU eviction leaves ghosts on
        # the expiry heap all through the schedule.
        pair = [
            cls(name="c0", capacity_bytes=1200)
            for cls in (CacheServer, _WalkingServer)
        ]

        def both(operation, *args):
            answers = [getattr(server, operation)(*args) for server in pair]
            assert answers[0] == answers[1], (operation, args, answers)
            return answers[0]

        now = 1
        horizon = 0
        most_stored = 0
        delivered = []  # (timestamp, tags) of every message, for replays
        counts = dict.fromkeys(("evicted", "truncated_on_insert", "late", "ghosts"), 0)
        for _ in range(2500):
            step = rng.random()
            key = rng.choice(self.KEYS)
            if step < 0.16:  # still valid, born around the stream's position
                lo = rng.randrange(max(0, now - 6), now + 2)
                tags = frozenset(self._tag(rng) for _ in range(rng.randrange(1, 3)))
                both("put", key, step, Interval(lo), tags)
                stored = [e for e in pair[0].versions_of(key) if e.interval.lo == lo]
                counts["truncated_on_insert"] += any(not e.still_valid for e in stored)
            elif step < 0.22:  # born at the newest invalidation: it reflects it
                both("put", key, step, Interval(now), frozenset({self._tag(rng)}))
            elif step < 0.32:  # bounded on arrival, sometimes already stale
                lo = rng.randrange(max(0, now - 10), now + 1)
                both("put", key, step, Interval(lo, lo + rng.randrange(1, 5)))
            elif step < 0.46:  # the stream, in order, one or two tags a message
                now += 1
                tags = tuple(self._tag(rng) for _ in range(rng.randrange(1, 3)))
                delivered.append((now, tags))
                both("process_invalidation", InvalidationMessage(timestamp=now, tags=tags))
            elif step < 0.50 and delivered:  # a replay: same message again
                timestamp, tags = rng.choice(delivered)
                both("process_invalidation", InvalidationMessage(timestamp=timestamp, tags=tags))
            elif step < 0.54 and delivered:  # late: an old timestamp, new tags
                timestamp = rng.choice(delivered)[0]
                tags = (self._tag(rng),)
                counts["late"] += timestamp <= horizon
                both("process_invalidation", InvalidationMessage(timestamp=timestamp, tags=tags))
            elif step < 0.58:
                now += 1
                both("note_timestamp", now)
            elif step < 0.70:  # rising, and now and then the same horizon again
                if rng.random() < 0.7:
                    horizon = max(horizon, now - rng.randrange(8))
                ghosts_before = len(pair[0]._expiring) - pair[0]._bounded_versions
                counts["evicted"] += both("evict_stale", horizon)
                ghosts_after = len(pair[0]._expiring) - pair[0]._bounded_versions
                counts["ghosts"] += max(0, ghosts_before - ghosts_after)
                # What is left to prune lies above the horizon.
                assert all(timestamp > horizon for timestamp, _ in pair[0]._unpruned)
            elif step < 0.74:
                both("discard_keys", rng.sample(self.KEYS, 2))
            elif step < 0.78:  # a migration chunk: goes through put
                lo = rng.randrange(max(0, now - 8), now + 1)
                both("install_entries", [
                    EntryRecord(key, "moved", Interval(lo, lo + 2), frozenset()),
                    EntryRecord(key, "moved", Interval(lo + 2), frozenset({self._tag(rng)})),
                ])  # fmt: skip
            else:  # lookups decide whom LRU eviction takes
                lo = rng.randrange(max(0, now - 8), now + 2)
                both("lookup", key, lo, lo + rng.randrange(4))
            assert _state(pair[0]) == _state(pair[1])
            # The heap covers every version that can expire, and a push
            # never leaves it much more than twice as long as that.
            server = pair[0]
            stored = [entry for versions in server._entries.values() for entry in versions]
            bounded = [(entry.interval.hi, entry.key) for entry in stored if not entry.still_valid]
            assert server._bounded_versions == len(bounded)
            assert set(bounded) <= set(server._expiring)
            most_stored = max(most_stored, len(stored))
            assert len(server._expiring) <= 2 * most_stored + 17
        stats = pair[0].stats
        assert stats.lru_evictions > 50 and stats.entries_invalidated > 50
        assert stats.entries_discarded > 10 and stats.entries_installed > 20
        assert counts["evicted"] > 100 and counts["truncated_on_insert"] > 10
        assert counts["late"] > 5 and counts["ghosts"] > 10, counts

    def test_the_heap_names_a_version_and_does_not_keep_it(self):
        """LRU eviction frees a bounded version's value at once: the heap
        item that outlives it holds the key and the bound, not the entry."""
        import gc
        import weakref

        class Value:
            pass

        server = CacheServer(name="c0", capacity_bytes=300)
        value = Value()
        gone = weakref.ref(value)
        server.put("old", value, Interval(1, 5))
        del value
        for i in range(8):
            server.put(f"k{i}", i, Interval(1))
        assert server.versions_of("old") == [] and server.stats.lru_evictions > 0
        gc.collect()
        assert gone() is None
        assert (5, "old") in server._expiring  # the ghost, to be skipped ...
        assert server.evict_stale(10) == 0  # ... which it is
        assert server._expiring == [] and server.used_bytes > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_put_files_a_version_where_a_stable_sort_would(self, seed):
        """Ascending by lower bound, equals in arrival order — which of two
        versions born together a lookup returns depends on it."""
        rng = random.Random(seed)
        server = CacheServer(name="c0", capacity_bytes=1 << 20)
        arrived = []
        for serial in range(200):
            lo = rng.randrange(12)
            interval = Interval(lo, lo + rng.randrange(1, 30))
            if server.put("k", serial, interval):
                arrived.append((interval, serial))
        assert len(arrived) > len({interval.lo for interval, _ in arrived}) + 3
        arrived.sort(key=lambda version: version[0].lo)
        assert [(e.interval, e.value) for e in server.versions_of("k")] == arrived

    def test_ghosts_are_sifted_out_when_nothing_pops_them(self):
        """Bounded versions churning through a small cache with no
        ``evict_stale`` in sight: the heap stays the size of the store."""
        server = CacheServer(name="c0", capacity_bytes=600)
        for i in range(3000):
            server.put(f"k{i}", i, Interval(i, i + 2))
            assert server.entry_count < 10 and len(server._expiring) < 2 * 10 + 17
        assert server.stats.lru_evictions > 2900
        stored = server.entry_count
        assert server._bounded_versions == stored > 0
        assert server.evict_stale(10**6) == stored and server.entry_count == 0
        assert server._expiring == [] and server.used_bytes == 0

# ----------------------------------------------------------------------
# The database's commit wall clocks
# ----------------------------------------------------------------------
class TestNewestTimestampAgainstItsDefinition:
    """``newest_timestamp_at_or_before`` beside a scan of every commit."""

    @staticmethod
    def _definition(commits, wallclock, floor):
        """Newest commit at or before ``wallclock`` among those still on
        record: the ones from ``floor`` on (0 if there is none)."""
        return max(
            (
                timestamp
                for timestamp, committed_at in commits
                if committed_at <= wallclock and timestamp >= floor
            ),
            default=0,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_bisect_equals_scan_through_commits_pins_and_vacuum(self, seed):
        rng = random.Random(seed)
        clock = ManualClock(start=100.0)
        database = Database(clock=clock)
        database.create_table(TableSchema.build("t", ["id", "v"], primary_key="id"))
        database.bulk_load("t", [{"id": 0, "v": 0}])
        commits = [(0, clock.now())]  # every commit ever, vacuumed or not
        pinned = []
        floor = 0  # the oldest commit vacuum has left on record
        pruned_answers = 0
        for step in range(600):
            choice = rng.random()
            if choice < 0.35:
                transaction = database.begin_rw()
                transaction.update("t", Eq("id", 0), {"v": step})
                commits.append((transaction.commit(), clock.now()))
            elif choice < 0.55:  # several commits may share a wall clock
                clock.advance(rng.choice([0.5, 1.0, 7.0]))
            elif choice < 0.65:
                pinned.append(database.pin_latest())
            elif choice < 0.75 and pinned:
                database.unpin(pinned.pop(rng.randrange(len(pinned))))
            elif choice < 0.85:
                database.vacuum()
                oldest = database.oldest_available_snapshot
                # Vacuum keeps the newest commit below the oldest available
                # snapshot and forgets the ones before it.
                floor = max([t for t, _ in commits if t < oldest], default=0)
                assert database._commit_timestamps[0] == floor
            times = [clock.now() + 1.0, 99.0] + [
                committed_at + delta
                for _, committed_at in rng.sample(commits, min(4, len(commits)))
                for delta in (-0.25, 0.0, 0.25)
            ]
            for wallclock in times:
                expected = self._definition(commits, wallclock, floor)
                assert database.newest_timestamp_at_or_before(wallclock) == expected
                pruned_answers += expected != self._definition(commits, wallclock, 0)
            assert database._commit_timestamps == [t for t, _ in commits if t >= floor]
            assert len(database._commit_timestamps) == len(database._commit_wallclocks)
        assert database.newest_timestamp_at_or_before(99.0) == 0  # before the first commit
        assert floor > 50 and pruned_answers > 0
        for timestamp, committed_at in commits:
            if timestamp >= floor:
                assert database.wallclock_of(timestamp) == committed_at
