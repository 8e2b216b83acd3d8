"""Tests for the database facade: pinning, vacuum, wall-clock mapping."""

from __future__ import annotations

import pytest

from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.errors import SnapshotTooOldError, UnknownTableError
from repro.db.query import Eq, Select
from tests.helpers import build_database, simple_schema


@pytest.fixture
def db():
    return build_database(rows=5)


def update_user(db, user_id, **changes):
    tx = db.begin_rw()
    tx.update("users", Eq("id", user_id), changes)
    return tx.commit()


class TestSchemaManagement:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(ValueError):
            db.create_table(simple_schema())

    def test_unknown_table_raises(self, db):
        with pytest.raises(UnknownTableError):
            db.table("missing")

    def test_bulk_load_counts_rows(self):
        db = Database(clock=ManualClock())
        db.create_table(simple_schema())
        loaded = db.bulk_load(
            "users", [{"id": i, "name": "x", "region": 0, "score": 0.0} for i in range(7)]
        )
        assert loaded == 7
        assert db.table("users").row_count() == 7

    def test_bulk_load_publishes_no_invalidations(self):
        db = Database(clock=ManualClock())
        db.create_table(simple_schema())
        db.bulk_load("users", [{"id": 1, "name": "x", "region": 0, "score": 0.0}])
        assert db.invalidation_bus.last_published_timestamp == -1


class TestTimestamps:
    def test_latest_timestamp_advances_with_commits(self, db):
        assert db.latest_timestamp == 0
        update_user(db, 1, score=1.0)
        assert db.latest_timestamp == 1
        update_user(db, 2, score=2.0)
        assert db.latest_timestamp == 2

    def test_wallclock_of_commit(self):
        clock = ManualClock()
        db = Database(clock=clock)
        db.create_table(simple_schema())
        db.bulk_load("users", [{"id": 1, "name": "x", "region": 0, "score": 0.0}])
        clock.advance(10.0)
        ts = update_user(db, 1, score=1.0)
        assert db.wallclock_of(ts) == pytest.approx(10.0)
        assert db.wallclock_of(0) == pytest.approx(0.0)

    def test_wallclock_of_unknown_timestamp_raises(self, db):
        with pytest.raises(SnapshotTooOldError):
            db.wallclock_of(999)

    def test_newest_timestamp_at_or_before(self):
        clock = ManualClock()
        db = Database(clock=clock)
        db.create_table(simple_schema())
        db.bulk_load("users", [{"id": i, "name": "x", "region": 0, "score": 0.0} for i in range(3)])
        clock.advance(5.0)
        t1 = update_user(db, 0, score=1.0)
        clock.advance(5.0)
        t2 = update_user(db, 1, score=2.0)
        assert db.newest_timestamp_at_or_before(4.0) == 0
        assert db.newest_timestamp_at_or_before(5.0) == t1
        assert db.newest_timestamp_at_or_before(100.0) == t2


class TestPinning:
    def test_pin_latest_returns_current_timestamp(self, db):
        update_user(db, 1, score=1.0)
        assert db.pin_latest() == db.latest_timestamp
        assert db.is_pinned(db.latest_timestamp)

    def test_pin_counts_are_reference_counted(self, db):
        ts = db.pin_latest()
        db.pin_latest()
        assert db.pinned_snapshots[ts] == 2
        db.unpin(ts)
        assert db.pinned_snapshots[ts] == 1
        db.unpin(ts)
        assert not db.is_pinned(ts)

    def test_begin_ro_at_pinned_snapshot(self, db):
        pinned = db.pin_latest()
        update_user(db, 1, name="changed")
        ro = db.begin_ro(snapshot_id=pinned)
        assert ro.query(Select("users", Eq("id", 1))).rows[0]["name"] == "user1"

    def test_begin_ro_future_snapshot_rejected(self, db):
        with pytest.raises(SnapshotTooOldError):
            db.begin_ro(snapshot_id=db.latest_timestamp + 5)

    def test_begin_ro_defaults_to_latest(self, db):
        update_user(db, 1, name="changed")
        ro = db.begin_ro()
        assert ro.snapshot_timestamp == db.latest_timestamp


class TestVacuum:
    def test_vacuum_removes_dead_versions(self, db):
        update_user(db, 1, name="v2")
        update_user(db, 1, name="v3")
        assert db.table("users").version_count() == 7  # 5 rows + 2 superseded
        removed = db.vacuum()
        assert removed == 2
        assert db.table("users").version_count() == 5

    def test_vacuum_respects_pinned_snapshots(self, db):
        pinned = db.pin_latest()  # pins timestamp 0
        update_user(db, 1, name="v2")
        removed = db.vacuum()
        assert removed == 0  # the old version is still visible to the pin
        db.unpin(pinned)
        assert db.vacuum() == 1

    def test_vacuumed_snapshot_no_longer_readable(self, db):
        update_user(db, 1, name="v2")
        db.vacuum()
        with pytest.raises(SnapshotTooOldError):
            db.begin_ro(snapshot_id=0)

    def test_vacuum_takes_the_dead_from_the_commit_queue_not_a_scan(self, db, monkeypatch):
        """Commits queue what they supersede in timestamp order; a run pops
        the prefix at or below the horizon and never walks the tables."""
        update_user(db, 1, name="v2")  # commit 1
        pinned = db.pin_latest()
        update_user(db, 1, name="v3")  # commit 2
        deleting = db.begin_rw()
        deleting.delete("users", Eq("id", 2))
        deleting.commit()  # commit 3
        both = db.begin_rw()  # creates a version and supersedes it itself
        both.update("users", Eq("id", 3), {"name": "a"})
        both.update("users", Eq("id", 3), {"name": "b"})
        both.commit()  # commit 4
        aborted = db.begin_rw()
        aborted.update("users", Eq("id", 4), {"name": "never"})
        aborted.abort()  # queues nothing

        def no_scans(_table):
            raise AssertionError("vacuum walked a table")

        monkeypatch.setattr(type(db.table("users")), "scan_versions", no_scans)
        assert [version.xmax for _table, version in db.superseded] == [1, 2, 3, 4, 4]
        assert db.vacuum() == 1  # only what was dead at the pinned snapshot
        assert [version.xmax for _table, version in db.superseded] == [2, 3, 4, 4]
        db.unpin(pinned)
        assert db.vacuum() == 4
        assert not db.superseded
        assert db.vacuum() == 0
        monkeypatch.undo()
        assert db.table("users").version_count() == 4  # five rows, one deleted
        assert db.stats.versions_vacuumed == 5

    def test_vacuum_updates_stats(self, db):
        update_user(db, 1, name="v2")
        db.vacuum()
        assert db.stats.vacuum_runs == 1
        assert db.stats.versions_vacuumed == 1


class TestStats:
    def test_transaction_counters(self, db):
        db.begin_ro().commit()
        update_user(db, 1, score=3.0)
        assert db.stats.ro_transactions >= 1
        assert db.stats.rw_transactions >= 1
        assert db.stats.commits >= 1

    def test_invalidations_published_counter(self, db):
        before = db.stats.invalidations_published
        update_user(db, 1, score=3.0)
        assert db.stats.invalidations_published == before + 1

    def test_reset(self, db):
        update_user(db, 1, score=3.0)
        db.stats.reset()
        assert db.stats.commits == 0
        assert db.stats.rw_transactions == 0
