"""Tests for query execution and validity-interval tracking.

These exercise the heart of the paper's database modification: the result
tuple validity, the invalidity mask built from phantoms, the final validity
interval, and the invalidation tags attached to each query result.
"""

from __future__ import annotations

import random

import pytest

from repro.db.database import Database
from repro.db.errors import ConstraintError, SerializationError
from repro.db.executor import Executor
from repro.db.invalidation import InvalidationTag
from repro.db.planner import plan_select
from repro.db.query import Aggregate, And, Eq, Select
from repro.db.schema import TableSchema
from repro.db.tuples import validity_of, visible_at
from repro.clock import ManualClock
from repro.interval import Interval, IntervalSet
from tests.helpers import build_database, simple_schema


@pytest.fixture
def db():
    return build_database(rows=10)


def update_user(db, user_id, **changes):
    """Commit a read/write transaction changing one user."""
    tx = db.begin_rw()
    tx.update("users", Eq("id", user_id), changes)
    return tx.commit()


def delete_user(db, user_id):
    tx = db.begin_rw()
    tx.delete("users", Eq("id", user_id))
    return tx.commit()


def insert_user(db, user_id, **extra):
    tx = db.begin_rw()
    row = {"id": user_id, "name": f"user{user_id}", "region": 0, "score": 0.0}
    row.update(extra)
    tx.insert("users", row)
    return tx.commit()


class TestBasicSelects:
    def test_point_lookup(self, db):
        result = db.begin_ro().query(Select("users", Eq("id", 3)))
        assert len(result.rows) == 1
        assert result.rows[0]["name"] == "user3"

    def test_full_scan(self, db):
        result = db.begin_ro().query(Select("users"))
        assert len(result.rows) == 10

    def test_order_by_and_limit(self, db):
        result = db.begin_ro().query(Select("users", order_by="id", descending=True, limit=3))
        assert [row["id"] for row in result.rows] == [10, 9, 8]

    def test_compound_predicate(self, db):
        result = db.begin_ro().query(
            Select("users", And(Eq("score", 6.0), Eq("region", 0)))
        )
        assert [row["id"] for row in result.rows] == [6]

    def test_rows_are_copies(self, db):
        result = db.begin_ro().query(Select("users", Eq("id", 1)))
        result.rows[0]["name"] = "mutated"
        again = db.begin_ro().query(Select("users", Eq("id", 1)))
        assert again.rows[0]["name"] == "user1"

    def test_unknown_table_raises(self, db):
        from repro.db.errors import UnknownTableError

        with pytest.raises(UnknownTableError):
            db.begin_ro().query(Select("missing"))


class TestAggregates:
    def test_count(self, db):
        assert db.begin_ro().query(Aggregate(Select("users"), "count")).scalar() == 10

    def test_max(self, db):
        assert db.begin_ro().query(Aggregate(Select("users"), "max", "id")).scalar() == 10

    def test_aggregates_over_empty_input(self, db):
        ro = db.begin_ro()
        empty = Select("users", Eq("id", 999))
        assert ro.query(Aggregate(empty, "count")).scalar() == 0
        assert ro.query(Aggregate(empty, "max", "id")).scalar() is None

    def test_invalid_aggregate_rejected(self):
        with pytest.raises(ValueError):
            Aggregate(Select("users"), "median", "id")
        with pytest.raises(ValueError):
            Aggregate(Select("users"), "max")


class TestValidityIntervals:
    def test_initial_data_is_valid_from_zero(self, db):
        result = db.begin_ro().query(Select("users", Eq("id", 1)))
        assert result.validity == Interval(0, None)
        assert result.still_valid

    def test_update_bounds_old_snapshot_result(self, db):
        ts = update_user(db, 1, name="renamed")
        old = db.begin_ro(snapshot_id=0).query(Select("users", Eq("id", 1)))
        assert old.validity == Interval(0, ts)
        new = db.begin_ro().query(Select("users", Eq("id", 1)))
        assert new.validity == Interval(ts, None)

    def test_unrelated_update_does_not_narrow_validity(self, db):
        update_user(db, 5, name="other")
        result = db.begin_ro().query(Select("users", Eq("id", 1)))
        assert result.validity == Interval(0, None)

    def test_phantom_insert_bounds_earlier_result(self, db):
        """A row inserted later bounds the validity of an earlier empty result."""
        ts = insert_user(db, 42)
        result = db.begin_ro(snapshot_id=0).query(Select("users", Eq("id", 42)))
        assert result.rows == []
        assert result.validity == Interval(0, ts)

    def test_phantom_delete_bounds_later_result(self, db):
        """After a delete, the new (empty) result's validity starts at the delete."""
        ts = delete_user(db, 3)
        result = db.begin_ro().query(Select("users", Eq("id", 3)))
        assert result.rows == []
        assert result.validity == Interval(ts, None)

    def test_scan_validity_intersects_all_matching_rows(self, db):
        ts1 = update_user(db, 2, score=50.0)
        ts2 = update_user(db, 4, score=60.0)
        result = db.begin_ro().query(Select("users"))
        # The result contains rows last modified at ts1 and ts2, so it is
        # valid only from the latest of those commits onwards.
        assert result.validity == Interval(ts2, None)
        assert ts1 < ts2

    def test_aggregate_validity_reflects_contributing_rows(self, db):
        ts = update_user(db, 7, score=99.0)
        result = db.begin_ro().query(Aggregate(Select("users"), "max", "score"))
        assert result.scalar() == 99.0
        assert result.validity.lo == ts

    def test_validity_piece_contains_query_timestamp(self, db):
        update_user(db, 1, name="v2")
        update_user(db, 1, name="v3")
        for snapshot in (0, 1, 2):
            result = db.begin_ro(snapshot_id=snapshot).query(Select("users", Eq("id", 1)))
            assert result.validity.contains(snapshot)

    def test_limit_does_not_break_validity(self, db):
        ts = update_user(db, 9, score=1.5)
        result = db.begin_ro().query(Select("users", order_by="id", limit=2))
        # Conservative: validity accounts for all matching rows, including
        # those beyond the limit, so the modified row bounds it.
        assert result.validity.lo == ts


class TestQueryTags:
    def test_index_lookup_gets_precise_tag(self, db):
        result = db.begin_ro().query(Select("users", Eq("name", "user3")))
        assert result.tags == frozenset({InvalidationTag.key("users", "name", "user3")})

    def test_seq_scan_gets_wildcard_tag(self, db):
        result = db.begin_ro().query(Select("users", Eq("score", 3.0)))
        assert [row["id"] for row in result.rows] == [3]
        assert result.access_methods == ("seq_scan",)
        assert result.tags == frozenset({InvalidationTag.wildcard("users")})


class TestValidityTrackingDisabled:
    def test_no_tracking_returns_point_interval_and_no_tags(self):
        db = Database(clock=ManualClock(), track_validity=False)
        db.create_table(simple_schema())
        db.bulk_load("users", [{"id": 1, "name": "a", "region": 0, "score": 0.0}])
        result = db.begin_ro().query(Select("users", Eq("id", 1)))
        assert result.validity == Interval(0, None)
        assert result.tags == frozenset()


class TestExecutorStats:
    def test_stats_accumulate(self, db):
        db.executor.stats.reset()
        ro = db.begin_ro()
        ro.query(Select("users", Eq("id", 1)))
        ro.query(Select("users"))
        assert db.executor.stats.queries == 2
        assert db.executor.stats.index_lookups == 1
        assert db.executor.stats.seq_scans == 1
        assert db.executor.stats.rows_returned == 11

    def test_observers_called(self, db):
        seen = []
        db.executor.add_observer(lambda query, result: seen.append((query, result)))
        db.begin_ro().query(Select("users", Eq("id", 1)))
        assert len(seen) == 1
        db.executor.remove_observer


class TestNewestFirstWalk:
    """A primary-key bucket of one row is walked newest first, and the walk
    stops at the first version that bounds every older one."""

    def _chain(self, updates):
        db = build_database(rows=3)
        db.pin_latest()  # keeps every version from vacuum
        for score in range(updates):
            update_user(db, 2, score=100.0 + score)
        return db

    def _agree(self, db, query, timestamp, tx_id=None):
        result = db.executor.execute(query, timestamp, tx_id)
        rows, validity, tags, examined = reference_execute(db, query, timestamp, tx_id)
        assert (result.rows, result.validity, result.tags) == (rows, validity, tags)
        assert result.examined <= examined
        return result

    def test_a_long_chain_read_at_its_latest_snapshot_examines_one_version(self):
        db = self._chain(40)
        result = self._agree(db, Select("users", Eq("id", 2)), db.latest_timestamp)
        assert [row["score"] for row in result.rows] == [139.0]
        assert result.validity == Interval(40, None)
        assert result.examined == 1

    def test_an_old_snapshot_walks_back_to_its_version(self):
        db = self._chain(40)
        result = self._agree(db, Select("users", Eq("id", 2)), 10)
        assert [row["score"] for row in result.rows] == [109.0]
        assert result.validity == Interval(10, 11)
        assert result.examined == 31

    def test_the_readers_own_uncommitted_delete_does_not_stop_the_walk(self):
        db = self._chain(1)
        tx = db.begin_rw()
        tx.delete("users", Eq("id", 2))
        result = self._agree(db, Select("users", Eq("id", 2)), tx.snapshot_timestamp, tx.tx_id)
        # The older version's end bounds the empty result from below.
        assert result.rows == [] and result.validity == Interval(1, None)
        assert result.examined == 2

    def test_a_version_born_and_gone_in_one_commit_does_not_stop_the_walk(self):
        db = build_database(rows=3)
        db.pin_latest()
        tx = db.begin_rw()
        tx.update("users", Eq("id", 2), {"name": "renamed"})  # born and gone ...
        tx.update("users", Eq("id", 2), {"score": 9.0})  # ... in this commit
        timestamp = tx.commit()
        query = Select("users", And(Eq("id", 2), Eq("score", 2.0)))
        result = self._agree(db, query, timestamp)
        # Only the first version's end says the row was there before.
        assert result.rows == [] and result.validity == Interval(timestamp, None)
        assert result.examined == 3

    def test_updates_and_deletes_find_their_row_through_the_walk(self):
        db = self._chain(40)
        tx = db.begin_rw()
        assert tx.update("users", Eq("id", 2), {"score": 0.5}) == 1
        assert tx.delete("users", Eq("id", 2)) == 1
        tx.commit()
        result = self._agree(db, Select("users", Eq("id", 2)), db.latest_timestamp)
        assert result.rows == []


# ----------------------------------------------------------------------
# The executor against its definitions
# ----------------------------------------------------------------------
def reference_execute(database, query, timestamp, tx_id=None):
    """What ``Executor.execute`` must answer, written with the definitions.

    Visibility is :func:`visible_at`, a version's committed interval is
    :func:`validity_of`, the invalidity mask is an :class:`IntervalSet` of
    every matching invisible version's interval, and the result's validity
    is :meth:`IntervalSet.piece_containing` — one ``Interval`` per version,
    the mask merged and re-sorted on every insertion.  Slow and obviously
    right; the executor keeps four integers instead and must agree on
    ``(rows, validity, tags)``.  ``examined`` here is every candidate; the
    executor may stop a one-row walk early, so it visits at most as many.
    """
    validity = Interval(0, None)
    mask = IntervalSet()
    tags = set()
    examined = 0

    def select(sel):
        nonlocal validity, examined
        table = database.table(sel.table)
        path = plan_select(sel, table)
        tags.update(path.tags())
        rows = []
        for version in path.candidates(table):
            examined += 1
            if not sel.predicate.matches(version.values, table.positions):
                continue
            interval = validity_of(version)
            if visible_at(version, timestamp, tx_id):
                rows.append(table.row_of(version))
                if interval is not None:
                    validity = validity.intersect(interval)
            elif interval is not None and not interval.contains(timestamp):
                mask.add(interval)
        if sel.order_by is not None:
            # None last (first when descending); a stable sort keeps ties.
            rows.sort(
                key=lambda row: (row.get(sel.order_by) is None, row.get(sel.order_by)),
                reverse=sel.descending,
            )
        if sel.limit is not None:
            rows = rows[: sel.limit]
        return rows

    if isinstance(query, Select):
        rows = select(query)
    else:
        source = select(query.source)
        values = [row[query.column] for row in source if row.get(query.column) is not None]
        value = {
            "count": lambda: len(source),
            "max": lambda: max(values, default=None),
        }[query.function]()
        rows = [{"value": value}]
    return rows, mask.piece_containing(validity, timestamp), frozenset(tags), examined


class _History:
    """A seeded random history over one small table.

    Up to three read/write transactions are in flight at once; each step
    begins one, writes through one (insert, update of an unindexed, either
    secondary-indexed or the primary-key column, delete, insert
    and delete of one row in the same transaction, insert of an id deleted
    before, a delete that is then aborted), commits or aborts one, pins or
    unpins a snapshot, or vacuums.  So the primary key's buckets are both
    kinds: one row's versions, and a deleted key's versions beside a newer
    row's.
    """

    QUERIED_IDS = (1, 2, 3, 4, 6, 100, 101, 102, 999)

    def __init__(self, seed, track_validity=True):
        self.rng = random.Random(seed)
        self.db = Database(clock=ManualClock(), track_validity=track_validity)
        self.db.create_table(simple_schema("users"))
        self.db.bulk_load(
            "users",
            [
                {"id": i, "name": f"user{i % 4}", "region": i % 3, "score": float(i % 4)}
                for i in range(1, 7)
            ],
        )
        self.live_ids = list(range(1, 7))
        self.gone_ids = []  # queried ids deleted or moved by a key update
        self.next_id = 100
        self.saw_mixed_bucket = self.saw_one_row_bucket = False
        self.in_flight = []
        self.pins = [self.db.pin_latest()]  # history accumulates from the start
        delete_user(self.db, 6)
        insert_user(self.db, 6)  # a mixed bucket from the start

    def step(self):
        rng, db = self.rng, self.db
        roll = rng.random()
        if not self.in_flight or (roll < 0.10 and len(self.in_flight) < 3):
            self.in_flight.append(db.begin_rw())
            self._write(self.in_flight[-1])
        elif roll < 0.50:
            self._write(rng.choice(self.in_flight))
        elif roll < 0.80:
            self.in_flight.pop(rng.randrange(len(self.in_flight))).commit()
        elif roll < 0.85:
            self.in_flight.pop(rng.randrange(len(self.in_flight))).abort()
        elif roll < 0.90:
            self.pins.append(db.pin_latest())
        elif roll < 0.96 and self.pins:
            db.unpin(self.pins.pop(rng.randrange(len(self.pins))))
        else:
            db.vacuum()

    def _write(self, tx):
        rng = self.rng
        target_id = rng.choice(self.live_ids)
        target = Eq("id", target_id)
        kind = rng.randrange(10)
        try:
            if kind == 0:
                tx.update("users", target, {"score": float(rng.randrange(4))})
            elif kind == 1:
                tx.update("users", target, {"name": f"user{rng.randrange(4)}"})
            elif kind == 2:
                tx.update("users", target, {"region": rng.randrange(3)})
            elif kind == 3:
                if tx.delete("users", target) and target_id in self.QUERIED_IDS:
                    self.gone_ids.append(target_id)
            elif kind == 6:
                new_id = self.next_id
                self.next_id += 1
                if tx.update("users", target, {"id": new_id}):
                    self.live_ids.append(new_id)
                    if target_id in self.QUERIED_IDS:
                        self.gone_ids.append(target_id)
            elif kind in (7, 9) and self.gone_ids:
                row_id = rng.choice(self.gone_ids)  # its bucket is queried
                tx.insert("users", {"id": row_id, "name": "user2", "region": 0, "score": 2.0})
            elif kind == 8:
                tx.delete("users", target)
                self.in_flight.remove(tx)
                tx.abort()
            elif kind in (4, 5):
                row_id = self.next_id
                self.next_id += 1
                tx.insert(
                    "users",
                    {"id": row_id, "name": "user1", "region": row_id % 3, "score": 1.0},
                )
                if kind == 5:
                    tx.delete("users", Eq("id", row_id))  # born and gone in one commit
                else:
                    self.live_ids.append(row_id)
        except (SerializationError, ConstraintError):
            self.in_flight.remove(tx)
            tx.abort()

    def queries(self):
        by_id = [Select("users", Eq("id", row_id)) for row_id in self.QUERIED_IDS]
        return by_id + [
            Select("users", Eq("name", "user1")),
            Select("users", Eq("score", 1.0)),
            Select("users", And(Eq("region", 1), Eq("score", 1.0))),
            Select("users", And(Eq("id", 2), Eq("region", 2))),
            Select("users", Eq("score", 1.0), order_by="region", limit=3),
            Select("users", order_by="id", descending=True),
            Aggregate(Select("users", Eq("region", 0)), "count"),
            Aggregate(Select("users", Eq("name", "user2")), "max", "score"),
            Aggregate(Select("users"), "max", "score"),
            Aggregate(Select("users", Eq("score", 2.0)), "count"),
        ]

    def check_every_query_at_every_snapshot(self):
        """Every query, at every timestamp so far as a plain reader and at
        each in-flight transaction's snapshot as that transaction (reading
        its own writes); returns how many comparisons were made."""
        readers = [(ts, None) for ts in range(self.db.latest_timestamp + 1)]
        readers += [(tx.snapshot_timestamp, tx.tx_id) for tx in self.in_flight]
        primary_key = self.db.table("users").index_on("id")
        for row_id in self.QUERIED_IDS:
            one_row = primary_key.walk(row_id)[1]
            self.saw_one_row_bucket |= one_row
            self.saw_mixed_bucket |= bool(primary_key.lookup(row_id)) and not one_row
        compared = 0
        for query in self.queries():
            for timestamp, tx_id in readers:
                result = self.db.executor.execute(query, timestamp, tx_id)
                rows, validity, tags, examined = reference_execute(
                    self.db, query, timestamp, tx_id
                )
                context = (query, timestamp, tx_id)
                assert result.rows == rows, context
                assert result.examined <= examined, context
                if self.db.executor.track_validity:
                    assert result.validity == validity, context
                    assert result.tags == tags, context
                else:
                    assert result.validity == Interval(timestamp, None), context
                    assert result.tags == frozenset(), context
                compared += 1
        return compared


class TestExecutorAgainstItsDefinitions:
    """The integer scan must answer exactly what the definitions answer."""

    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_histories_agree_at_every_snapshot(self, seed):
        history = _History(seed)
        compared = 0
        for step in range(1, 121):
            history.step()
            if step % 12 == 0:  # in-flight states too, not just the final one
                compared += history.check_every_query_at_every_snapshot()
        assert history.db.latest_timestamp >= 10  # the history did commit
        assert compared > 1000
        assert history.saw_one_row_bucket and history.saw_mixed_bucket

    def test_untracked_executor_returns_the_same_rows_and_counts(self):
        history = _History(seed=3, track_validity=False)
        for _ in range(80):
            history.step()
        assert history.check_every_query_at_every_snapshot() > 100

    def test_equal_keys_of_different_types_share_a_bucket(self):
        """1, 1.0 and True are one dict key; the index condition answers
        for all three spellings without re-evaluating the predicate.  The
        bucket is one row's: at timestamp 1 the walk stops at the newest
        version, at 0 it passes it (born later) to reach the visible one."""
        db = build_database(rows=3)
        update_user(db, 1, score=7.0)  # a dead version in the bucket
        for key in (1, 1.0, True):
            for timestamp in (0, 1):
                result = db.executor.execute(Select("users", Eq("id", key)), timestamp)
                rows, validity, tags, examined = reference_execute(
                    db, Select("users", Eq("id", key)), timestamp
                )
                assert [row["id"] for row in result.rows] == [1]
                assert (result.rows, result.validity, result.tags) == (rows, validity, tags)
                assert examined == 2
                assert result.examined == (2 if timestamp == 0 else 1)

    def test_nan_key_matches_nothing_on_the_index_path(self):
        """``Eq`` on a NaN matches no row (NaN != NaN) although the index
        finds the NaN bucket by identity: the predicate is re-evaluated."""
        nan = float("nan")
        db = Database(clock=ManualClock())
        db.create_table(TableSchema.build("m", ["id", "x"], primary_key="id", indexes=["x"]))
        db.bulk_load("m", [{"id": 1, "x": nan}, {"id": 2, "x": 2.0}])
        query = Select("m", Eq("x", nan))
        result = db.executor.execute(query, 0)
        assert result.access_methods == ("index_eq",)
        assert result.examined == 1  # the bucket was found ...
        assert result.rows == []  # ... and its version does not match
        rows, validity, tags, examined = reference_execute(db, query, 0)
        assert (result.rows, result.validity, result.tags, result.examined) == (
            rows, validity, tags, examined,
        )

    def test_a_validity_that_excludes_its_own_snapshot_is_refused(self, db, monkeypatch):
        """The guard ``piece_containing`` was: no scan of consistent stamps
        can produce it, so a scan that folds an edge on the wrong side of the
        snapshot stands in for a broken one."""
        scan = Executor._scan

        def wrong_side(self, path, table, predicate, timestamp, tx_id, acc):
            visible = scan(self, path, table, predicate, timestamp, tx_id, acc)
            acc.ceil = timestamp  # a "later" phantom born at the snapshot itself
            return visible

        monkeypatch.setattr(Executor, "_scan", wrong_side)
        with pytest.raises(ValueError, match="timestamp 0 not in"):
            db.executor.execute(Select("users"), 0)
