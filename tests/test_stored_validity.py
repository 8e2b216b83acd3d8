"""Stored validity against the database's own version history.

A real :class:`Database` and :class:`CacheServer` share an invalidation bus
while a seeded schedule interleaves writers (insert / update / delete on a
small table), readers that compute a cacheable at an arbitrary earlier
snapshot and ``put`` it only after 0…k further commits have been delivered,
readers that ``put`` *before* their own commit's invalidation arrives (the
bus is deferred for the moment), stale eviction, and finally a migration of
everything stored onto a second node that saw the same stream.

The oracle reads nothing but the table's versions (``xmin`` / ``xmax``,
through :func:`repro.db.tuples.visible_at`): the result of a query at every
timestamp, and from those the maximal interval around a timestamp over which
the result did not change.  For every stored version, on both nodes:

* **never over-claims** — the value is the result at the entry's lower
  bound, and the interval a lookup may rely on lies inside the true one;
* **never under-claims** — an entry with precise tags (a primary-key read)
  has *exactly* the true interval once the watermark has passed its end.

The second check is the one with teeth against the rule this file exists
for (an invalidation at T bounds only entries born before T): restoring
``bisect_left`` in ``CacheServer._first_invalidation_after`` stores every
read of a once-written row as ``[T, T + 1)``, dropping the ``_can_end`` test
from ``_truncate_still_valid`` empties every put that beat its own
invalidation, and truncating at the *latest* matching invalidation instead
of the first over-claims — each fails here at every seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.cache.server import CacheServer
from repro.clock import ManualClock
from repro.comm.multicast import InvalidationBus
from repro.db.database import Database
from repro.db.query import And, Eq, Predicate, Select
from repro.db.schema import TableSchema
from repro.db.tuples import visible_at
from repro.interval import Interval

TABLE = "rows"
IDS = range(6)
GROUPS = range(2)
#: A row's unindexed ``big`` column says whether its ``v`` is at or above
#: this.  A group read keeps only its big rows, so most writes to its group
#: invalidate its tag without changing its result (tag coarseness).
BIG = 1000


def _queries() -> Dict[str, Tuple[Predicate, bool]]:
    """cache key -> (predicate, whether its tags are precise for its result)."""
    queries: Dict[str, Tuple[Predicate, bool]] = {
        f"row:{i}": (Eq("id", i), True) for i in IDS
    }
    for g in GROUPS:
        queries[f"big:{g}"] = (And(Eq("grp", g), Eq("big", True)), False)
    return queries


class History:
    """The oracle: results and true validity, from the stored versions alone."""

    def __init__(self, database: Database) -> None:
        self.latest = database.latest_timestamp
        self.table = database.table(TABLE)
        self.versions = [
            version for version in self.table.scan_versions() if isinstance(version.xmin, int)
        ]
        self._results: Dict[Predicate, List[frozenset]] = {}

    def results(self, predicate: Predicate) -> List[frozenset]:
        """The query's result — the versions it returns — at 0 … latest."""
        if predicate not in self._results:
            positions = self.table.positions
            matching = [v for v in self.versions if predicate.matches(v.values, positions)]
            self._results[predicate] = [
                frozenset(id(v) for v in matching if visible_at(v, timestamp))
                for timestamp in range(self.latest + 1)
            ]
        return self._results[predicate]

    def rows_at(self, predicate: Predicate, timestamp: int) -> list:
        rows = [
            self.table.row_of(v)
            for v in self.versions
            if predicate.matches(v.values, self.table.positions) and visible_at(v, timestamp)
        ]
        return sorted((row["id"], row["v"]) for row in rows)

    def validity(self, predicate: Predicate, timestamp: int) -> Interval:
        """The maximal interval around ``timestamp`` with one unchanged result."""
        results = self.results(predicate)
        here = results[timestamp]
        lo = timestamp
        while lo > 0 and results[lo - 1] == here:
            lo -= 1
        hi = timestamp + 1
        while hi <= self.latest and results[hi] == here:
            hi += 1
        return Interval(lo, None if hi > self.latest else hi)


class Schedule:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.bus = InvalidationBus()
        self.database = Database(clock=ManualClock(), invalidation_bus=self.bus)
        self.database.create_table(
            TableSchema.build(
                TABLE, ["id", "grp", "v", "big"], primary_key="id", indexes=["grp"]
            )
        )
        self.database.bulk_load(
            TABLE,
            [{"id": i, "grp": i % len(GROUPS), "v": i, "big": False} for i in IDS if i % 3],
        )
        self.server = CacheServer("source", capacity_bytes=1 << 22)
        #: Sees the same stream, stores nothing until the migration.
        self.target = CacheServer("target", capacity_bytes=1 << 22)
        self.bus.subscribe(self.server)
        self.bus.subscribe(self.target)
        self.queries = _queries()
        #: (commits still to wait for, key, value, interval, tags, snapshot)
        self.pending: List[list] = []
        #: no reader may use a snapshot below the newest eviction horizon.
        self.horizon = 0
        self.counts = dict.fromkeys(
            ("late_truncated", "born_at_invalidation", "beat_own_invalidation", "evictions"), 0
        )

    # -- writers -------------------------------------------------------
    def write(self) -> None:
        rng = self.rng
        tx = self.database.begin_rw()
        for row_id in rng.sample(IDS, rng.choice((1, 1, 2))):
            current = tx.query(Select(TABLE, Eq("id", row_id))).rows
            if not current:
                value = rng.choice((rng.randrange(100), BIG + rng.randrange(100)))
                tx.insert(
                    TABLE,
                    {"id": row_id, "grp": row_id % len(GROUPS), "v": value, "big": value >= BIG},
                )
            elif rng.random() < 0.2:
                tx.delete(TABLE, Eq("id", row_id))
            else:
                # Always a different value, staying on its side of BIG nine
                # times in ten.
                value = current[0]["v"] + 1
                if rng.random() < 0.1:
                    value = (value + BIG) % (2 * BIG)
                tx.update(TABLE, Eq("id", row_id), {"v": value, "big": value >= BIG})
        tx.commit()
        for put in self.pending:
            put[0] -= 1

    # -- readers -------------------------------------------------------
    def read(self, snapshot: int, delay: int) -> None:
        key = self.rng.choice(sorted(self.queries))
        predicate, _precise = self.queries[key]
        result = self.database.begin_ro(snapshot).query(Select(TABLE, predicate))
        value = sorted((row["id"], row["v"]) for row in result.rows)
        tags = result.tags if result.validity.unbounded else frozenset()
        self.pending.append([delay, key, value, result.validity, tags, snapshot])

    def flush_due_puts(self) -> None:
        due = [put for put in self.pending if put[0] <= 0]
        self.pending = [put for put in self.pending if put[0] > 0]
        history = self.server._tag_invalidations
        for _delay, key, value, interval, tags, _snapshot in due:
            if interval.unbounded:
                seen = [t for tag in tags for t in history.get(tag, ())]
                self.counts["born_at_invalidation"] += interval.lo in seen
                self.counts["late_truncated"] += any(t > interval.lo for t in seen)
            self.server.put(key, value, interval, tags)

    def step(self) -> None:
        rng = self.rng
        latest = self.database.latest_timestamp
        choice = rng.random()
        if choice < 0.35:
            self.write()
        elif choice < 0.75:
            snapshot = latest if rng.random() < 0.5 else rng.randrange(self.horizon, latest + 1)
            self.read(snapshot, delay=rng.randrange(4))
        elif choice < 0.93:
            # A reader of the newest commit whose put beats that commit's
            # own invalidation to the node.
            self.bus.set_synchronous(False)
            self.write()
            self.read(self.database.latest_timestamp, delay=0)
            self.flush_due_puts()
            self.counts["beat_own_invalidation"] += 1
            self.bus.set_synchronous(True)
        else:
            in_use = [put[5] for put in self.pending] + [latest]
            horizon = max(self.horizon, min(in_use) - rng.randrange(3))
            self.horizon = horizon
            self.counts["evictions"] += self.server.evict_stale(horizon)
            self.target.evict_stale(horizon)
        self.flush_due_puts()

    # -- the check -----------------------------------------------------
    def check(self, server: CacheServer) -> int:
        history = History(self.database)
        watermark = server.last_invalidation_timestamp
        checked = 0
        for key in server.keys():
            predicate, precise = self.queries[key]
            for entry in server.versions_of(key):
                stored = entry.interval
                truth = history.validity(predicate, stored.lo)
                assert entry.value == history.rows_at(predicate, stored.lo), (key, entry)
                usable = entry.effective_interval(watermark)
                assert truth.contains_interval(usable), (
                    f"{server.name} over-claims {key}: stored {stored!r}, "
                    f"usable {usable!r}, true {truth!r}"
                )
                if precise and (truth.hi is None or watermark >= truth.hi):
                    assert stored == truth, (
                        f"{server.name} under-claims {key}: stored {stored!r}, true {truth!r}"
                    )
                assert entry.still_valid or not entry.tags
                checked += 1
        return checked


@pytest.mark.parametrize("seed", range(8))
def test_stored_intervals_equal_what_the_version_history_proves(seed):
    schedule = Schedule(seed)
    checked = 0
    for step in range(400):
        schedule.step()
        if step % 25 == 24:
            checked += schedule.check(schedule.server)
    # Let every queued put land, read every key once more at the newest
    # snapshot, then compare the whole store.
    while schedule.pending:
        schedule.write()
        schedule.flush_due_puts()
    latest = schedule.database.latest_timestamp
    for key, (predicate, _precise) in schedule.queries.items():
        result = schedule.database.begin_ro(latest).query(Select(TABLE, predicate))
        rows = sorted((row["id"], row["v"]) for row in result.rows)
        schedule.server.put(key, rows, result.validity, result.tags)
    checked += schedule.check(schedule.server)

    # Migration goes through ``put``: the target saw every invalidation the
    # records were born at, and must keep what the source proved.
    records, cursor = schedule.server.extract_entries(limit=1000)
    assert cursor is None
    assert schedule.target.install_entries(records) > 0
    assert schedule.check(schedule.target) > 0
    for key, (_predicate, precise) in schedule.queries.items():
        if precise:
            assert schedule.target.versions_of(key)[-1].still_valid, key

    # The schedule reached the cases the rule is about.
    assert checked > 100
    assert all(count > 5 for count in schedule.counts.values()), schedule.counts
    assert schedule.server.stats.entries_invalidated > 20


def test_a_read_of_a_just_written_row_is_cached_as_still_valid():
    """The smallest schedule the differential test generalises: write a row,
    read it at the new snapshot, put it after the invalidation arrived."""
    schedule = Schedule(seed=0)
    tx = schedule.database.begin_rw()
    tx.update(TABLE, Eq("id", 1), {"v": 77})
    written = tx.commit()
    result = schedule.database.begin_ro(written).query(Select(TABLE, Eq("id", 1)))
    assert result.validity == Interval(written)
    assert schedule.server.last_invalidation_timestamp == written
    schedule.server.put("row:1", [(1, 77)], result.validity, result.tags)
    assert [e.interval for e in schedule.server.versions_of("row:1")] == [Interval(written)]
    assert schedule.check(schedule.server) == 1
