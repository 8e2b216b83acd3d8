"""Tests for read/write and read-only transactions (snapshot isolation)."""

from __future__ import annotations

import pytest

from repro.comm.multicast import InvalidationBus
from repro.db.database import Database
from repro.db.errors import ConstraintError, SerializationError, TransactionStateError
from repro.db.invalidation import InvalidationTag
from repro.db.query import And, Eq, Select, TruePredicate
from repro.db.tuples import visible_at
from repro.clock import ManualClock
from tests.helpers import build_database, simple_schema


@pytest.fixture
def db():
    return build_database(rows=5)


class TestReadWriteBasics:
    def test_insert_visible_after_commit(self, db):
        tx = db.begin_rw()
        tx.insert("users", {"id": 99, "name": "new", "region": 0, "score": 0.0})
        tx.commit()
        assert len(db.begin_ro().query(Select("users", Eq("id", 99))).rows) == 1

    def test_insert_invisible_before_commit(self, db):
        tx = db.begin_rw()
        tx.insert("users", {"id": 99, "name": "new", "region": 0, "score": 0.0})
        assert db.begin_ro().query(Select("users", Eq("id", 99))).rows == []
        tx.commit()

    def test_transaction_sees_its_own_insert(self, db):
        tx = db.begin_rw()
        tx.insert("users", {"id": 99, "name": "new", "region": 0, "score": 0.0})
        assert len(tx.query(Select("users", Eq("id", 99))).rows) == 1

    def test_update_changes_value(self, db):
        tx = db.begin_rw()
        count = tx.update("users", Eq("id", 2), {"name": "renamed"})
        tx.commit()
        assert count == 1
        assert db.begin_ro().query(Select("users", Eq("id", 2))).rows[0]["name"] == "renamed"

    def test_transaction_sees_its_own_update(self, db):
        tx = db.begin_rw()
        tx.update("users", Eq("id", 2), {"name": "renamed"})
        assert tx.query(Select("users", Eq("id", 2))).rows[0]["name"] == "renamed"

    def test_delete_removes_row(self, db):
        tx = db.begin_rw()
        count = tx.delete("users", Eq("id", 3))
        tx.commit()
        assert count == 1
        assert db.begin_ro().query(Select("users", Eq("id", 3))).rows == []

    def test_transaction_does_not_see_its_own_delete(self, db):
        tx = db.begin_rw()
        tx.delete("users", Eq("id", 3))
        assert tx.query(Select("users", Eq("id", 3))).rows == []

    def test_commit_returns_increasing_timestamps(self, db):
        first = db.begin_rw()
        first.update("users", Eq("id", 1), {"score": 1.0})
        first_ts = first.commit()
        second = db.begin_rw()
        second.update("users", Eq("id", 2), {"score": 2.0})
        assert second.commit() > first_ts

    def test_empty_commit_consumes_no_timestamp(self, db):
        before = db.latest_timestamp
        tx = db.begin_rw()
        tx.query(Select("users", Eq("id", 1)))
        assert tx.commit() == before
        assert db.latest_timestamp == before

    def test_operations_after_commit_rejected(self, db):
        tx = db.begin_rw()
        tx.commit()
        with pytest.raises(TransactionStateError):
            tx.insert("users", {"id": 100, "name": "x", "region": 0, "score": 0.0})
        with pytest.raises(TransactionStateError):
            tx.commit()


class TestAbort:
    def test_aborted_insert_disappears(self, db):
        tx = db.begin_rw()
        tx.insert("users", {"id": 99, "name": "new", "region": 0, "score": 0.0})
        tx.abort()
        assert db.begin_ro().query(Select("users", Eq("id", 99))).rows == []
        # The provisional version is physically removed, not just hidden.
        assert db.table("users").index_on("id").lookup(99) == []

    def test_aborted_update_restores_old_version(self, db):
        tx = db.begin_rw()
        tx.update("users", Eq("id", 2), {"name": "renamed"})
        tx.abort()
        row = db.begin_ro().query(Select("users", Eq("id", 2))).rows[0]
        assert row["name"] == "user2"
        # And the row can be updated again afterwards.
        tx2 = db.begin_rw()
        assert tx2.update("users", Eq("id", 2), {"name": "second"}) == 1
        tx2.commit()

    def test_aborted_delete_restores_row(self, db):
        tx = db.begin_rw()
        tx.delete("users", Eq("id", 2))
        tx.abort()
        assert len(db.begin_ro().query(Select("users", Eq("id", 2))).rows) == 1

    def test_abort_counted(self, db):
        before = db.stats.aborts
        tx = db.begin_rw()
        tx.abort()
        assert db.stats.aborts == before + 1


class TestSnapshotIsolation:
    def test_reader_does_not_see_concurrent_uncommitted_write(self, db):
        reader = db.begin_ro()
        writer = db.begin_rw()
        writer.update("users", Eq("id", 1), {"name": "changed"})
        assert reader.query(Select("users", Eq("id", 1))).rows[0]["name"] == "user1"
        writer.commit()
        # Snapshot taken at BEGIN: still the old value.
        assert reader.query(Select("users", Eq("id", 1))).rows[0]["name"] == "user1"

    def test_new_reader_sees_committed_write(self, db):
        writer = db.begin_rw()
        writer.update("users", Eq("id", 1), {"name": "changed"})
        writer.commit()
        assert db.begin_ro().query(Select("users", Eq("id", 1))).rows[0]["name"] == "changed"

    def test_write_write_conflict_detected(self, db):
        first = db.begin_rw()
        second = db.begin_rw()
        first.update("users", Eq("id", 1), {"score": 10.0})
        with pytest.raises(SerializationError):
            second.update("users", Eq("id", 1), {"score": 20.0})

    def test_conflict_with_committed_writer_detected(self, db):
        early = db.begin_rw()  # snapshot before the other writer commits
        other = db.begin_rw()
        other.update("users", Eq("id", 1), {"score": 10.0})
        other.commit()
        with pytest.raises(SerializationError):
            early.update("users", Eq("id", 1), {"score": 20.0})

    def test_non_conflicting_writers_both_commit(self, db):
        first = db.begin_rw()
        second = db.begin_rw()
        first.update("users", Eq("id", 1), {"score": 10.0})
        second.update("users", Eq("id", 2), {"score": 20.0})
        first.commit()
        second.commit()


class TestUniqueKeys:
    """A deleted key is free only once its delete commits (or is the
    inserter's own): otherwise an aborted delete would leave two current
    rows under one primary key."""

    ROW = {"id": 1, "name": "again", "region": 0, "score": 0.0}

    def test_a_key_deleted_by_a_transaction_in_flight_is_still_taken(self, db):
        deleter = db.begin_rw()
        assert deleter.delete("users", Eq("id", 1)) == 1
        inserter = db.begin_rw()
        with pytest.raises(ConstraintError):
            inserter.insert("users", dict(self.ROW))
        inserter.abort()
        deleter.abort()
        rows = db.begin_ro().query(Select("users", Eq("id", 1))).rows
        assert [row["name"] for row in rows] == ["user1"]

    def test_a_key_is_free_once_its_delete_commits(self, db):
        deleter = db.begin_rw()
        deleter.delete("users", Eq("id", 1))
        deleter.commit()
        inserter = db.begin_rw()
        inserter.insert("users", dict(self.ROW))
        inserter.commit()
        rows = db.begin_ro().query(Select("users", Eq("id", 1))).rows
        assert [row["name"] for row in rows] == ["again"]

    def test_a_transaction_may_delete_and_insert_its_own_key(self, db):
        tx = db.begin_rw()
        tx.delete("users", Eq("id", 1))
        tx.insert("users", dict(self.ROW))
        assert [row["name"] for row in tx.query(Select("users", Eq("id", 1))).rows] == ["again"]
        timestamp = tx.commit()
        for at, name in ((timestamp - 1, "user1"), (timestamp, "again")):
            rows = db.begin_ro(snapshot_id=at).query(Select("users", Eq("id", 1))).rows
            assert [row["name"] for row in rows] == [name]

    def test_a_refused_key_update_leaves_the_row_unclaimed_and_unchanged(self, db):
        tx = db.begin_rw()
        with pytest.raises(ConstraintError):
            tx.update("users", Eq("id", 1), {"id": 2})
        tx.abort()
        assert [v.xmax for v in db.table("users").versions_of(1)] == [None]
        other = db.begin_rw()
        assert other.update("users", Eq("id", 1), {"score": 5.0}) == 1
        other.commit()
        rows = db.begin_ro().query(Select("users", Eq("id", 2))).rows
        assert [row["name"] for row in rows] == ["user2"]

    def test_a_key_inserted_by_a_transaction_in_flight_is_taken(self, db):
        first = db.begin_rw()
        first.insert("users", {**self.ROW, "id": 50})
        second = db.begin_rw()
        with pytest.raises(ConstraintError):
            second.insert("users", {**self.ROW, "id": 50})


def _full_scan_targets(tx, predicate):
    """The reference answer: every stored version, predicate, then visibility."""
    table = tx._db.table("users")
    return [
        version
        for version in table.scan_versions()
        if predicate.matches(version.values, table.positions)
        and visible_at(version, tx.snapshot_timestamp, tx.tx_id)
    ]


def _assert_targets_match_scan(tx, predicate):
    targets = tx._visible_matching("users", predicate)
    expected = _full_scan_targets(tx, predicate)
    assert len(targets) == len(expected)  # no version twice
    assert {id(v) for v in targets} == {id(v) for v in expected}
    return targets


def _write(tx, kind, predicate):
    if kind == "update":
        return tx.update("users", predicate, {"name": "written"})
    return tx.delete("users", predicate)


#: id, name and region are hash-indexed, score is not indexed; an unindexed
#: conjunct is a filter on whichever path the rest of the predicate plans.
WRITE_PREDICATES = {
    "indexed-eq": Eq("id", 2),
    "secondary-eq": Eq("name", "user3"),
    "secondary-eq-many-rows": Eq("region", 2),
    "unindexed-eq": Eq("score", 3.0),
    "and-indexed-unindexed": And(Eq("region", 1), Eq("score", 4.0)),
    "all-rows": TruePredicate(),
    "matches-nothing": Eq("id", 999),
}


class TestWriteTargetsMatchFullScan:
    """UPDATE/DELETE take candidates from the planner's access path; the
    rows they touch must be the ones a scan of every version would find."""

    @pytest.fixture
    def aged(self):
        """Nine rows with history: dead versions, a moved row, a deleted row."""
        db = build_database(rows=9)
        for score in range(20):  # row 2 gathers twenty dead versions
            tx = db.begin_rw()
            tx.update("users", Eq("id", 2), {"score": float(score)})
            tx.commit()
        tx = db.begin_rw()
        tx.update("users", Eq("id", 5), {"region": 1})  # leaves region 2
        tx.delete("users", Eq("id", 7))
        tx.commit()
        return db

    @pytest.mark.parametrize("name", sorted(WRITE_PREDICATES))
    def test_targets_equal_full_scan(self, aged, name):
        _assert_targets_match_scan(aged.begin_rw(), WRITE_PREDICATES[name])

    @pytest.mark.parametrize("name", sorted(WRITE_PREDICATES))
    def test_update_and_delete_counts_equal_full_scan(self, aged, name):
        predicate = WRITE_PREDICATES[name]
        tx = aged.begin_rw()
        expected = len(_full_scan_targets(tx, predicate))
        assert tx.update("users", predicate, {"name": "touched"}) == expected
        assert len(tx.query(Select("users", Eq("name", "touched"))).rows) == expected
        assert tx.delete("users", Eq("name", "touched")) == expected
        tx.commit()
        assert aged.begin_ro().query(Select("users", predicate)).rows == []

    def test_row_updated_twice_in_one_transaction(self, aged):
        tx = aged.begin_rw()
        assert tx.update("users", Eq("id", 3), {"score": 30.0}) == 1
        (target,) = _assert_targets_match_scan(tx, Eq("id", 3))
        assert tx._db.table("users").row_of(target)["score"] == 30.0  # its own new version, not the old one
        assert tx.update("users", Eq("id", 3), {"score": 31.0}) == 1
        tx.commit()
        rows = aged.begin_ro().query(Select("users", Eq("id", 3))).rows
        assert [row["score"] for row in rows] == [31.0]

    def test_update_that_changes_the_indexed_column(self, aged):
        tx = aged.begin_rw()
        in_one = len(_full_scan_targets(tx, Eq("region", 1)))
        moved = tx.update("users", Eq("region", 1), {"region": 2})
        assert moved == in_one > 0
        assert _assert_targets_match_scan(tx, Eq("region", 1)) == []
        in_two = _assert_targets_match_scan(tx, Eq("region", 2))
        assert len(in_two) > moved  # the moved rows joined the ones already there
        tx.commit()
        assert aged.begin_rw().update("users", Eq("region", 2), {"score": 0.0}) == len(in_two)

    def test_row_with_many_dead_versions_yields_one_target(self, aged):
        assert aged.table("users").version_count() > 9 + 20
        tx = aged.begin_rw()
        (target,) = _assert_targets_match_scan(tx, Eq("id", 2))
        assert aged.table("users").row_of(target)["score"] == 19.0
        assert tx.update("users", Eq("id", 2), {"score": -1.0}) == 1

    @pytest.mark.parametrize("predicate", [Eq("id", 1), Eq("score", 1.0)], ids=["index", "scan"])
    @pytest.mark.parametrize("write", ["update", "delete"])
    def test_row_claimed_by_concurrent_transaction_raises(self, db, predicate, write):
        first, second = db.begin_rw(), db.begin_rw()
        first.update("users", Eq("id", 1), {"name": "mine"})
        with pytest.raises(SerializationError):
            _write(second, write, predicate)

    @pytest.mark.parametrize("predicate", [Eq("id", 1), Eq("score", 1.0)], ids=["index", "scan"])
    @pytest.mark.parametrize("write", ["update", "delete"])
    def test_row_deleted_after_the_snapshot_raises(self, db, predicate, write):
        early = db.begin_rw()
        other = db.begin_rw()
        other.delete("users", Eq("id", 1))
        other.commit()
        with pytest.raises(SerializationError):
            _write(early, write, predicate)


class TestCommitInvalidations:
    def build(self):
        bus = InvalidationBus()
        received = []

        class Collector:
            def process_invalidation(self, message):
                received.append(message)

        bus.subscribe(Collector())
        db = Database(clock=ManualClock(), invalidation_bus=bus)
        db.create_table(simple_schema())
        db.bulk_load(
            "users",
            [{"id": i, "name": f"user{i}", "region": i % 2, "score": 0.0} for i in range(1, 4)],
        )
        return db, received

    def test_update_publishes_tags_for_old_and_new_values(self):
        db, received = self.build()
        tx = db.begin_rw()
        tx.update("users", Eq("id", 1), {"name": "renamed"})
        ts = tx.commit()
        assert len(received) == 1
        message = received[0]
        assert message.timestamp == ts
        tags = set(message.tags)
        assert InvalidationTag.key("users", "name", "user1") in tags
        assert InvalidationTag.key("users", "name", "renamed") in tags
        assert InvalidationTag.key("users", "id", 1) in tags

    def test_insert_publishes_tags_for_each_index(self):
        db, received = self.build()
        tx = db.begin_rw()
        tx.insert("users", {"id": 50, "name": "n", "region": 1, "score": 0.0})
        tx.commit()
        tags = set(received[0].tags)
        assert InvalidationTag.key("users", "id", 50) in tags
        assert InvalidationTag.key("users", "name", "n") in tags
        assert InvalidationTag.key("users", "region", 1) in tags

    def test_each_commit_publishes_every_tag_its_versions_yield(self):
        """A row moved between index keys yields both keys' tags; an insert
        and a delete yield each index's tag of their version."""
        db, received = self.build()
        tx = db.begin_rw()
        tx.update("users", Eq("id", 1), {"region": 0})
        tx.insert("users", {"id": 50, "name": "n", "region": 1, "score": 0.0})
        moved = tx.commit()
        tx = db.begin_rw()
        tx.delete("users", Eq("id", 2))
        deleted = tx.commit()
        key = InvalidationTag.key
        assert [(message.timestamp, set(message.tags)) for message in received] == [
            (moved, {
                key("users", "id", 1), key("users", "name", "user1"),
                key("users", "region", 1), key("users", "region", 0),
                key("users", "id", 50), key("users", "name", "n"),
            }),
            (deleted, {
                key("users", "id", 2), key("users", "name", "user2"), key("users", "region", 0),
            }),
        ]  # fmt: skip

    def test_readonly_rw_commit_publishes_nothing(self):
        db, received = self.build()
        tx = db.begin_rw()
        tx.query(Select("users", Eq("id", 1)))
        tx.commit()
        assert received == []

    def test_bulk_update_collapses_to_wildcard(self):
        db, received = self.build()
        db.bulk_load(
            "users",
            [{"id": i, "name": f"bulk{i}", "region": 0, "score": 0.0} for i in range(100, 200)],
        )
        tx = db.begin_rw()
        tx.update("users", Eq("region", 0), {"score": 5.0})
        tx.commit()
        tags = set(received[-1].tags)
        assert InvalidationTag.wildcard("users") in tags


class TestReadOnlyTransaction:
    def test_commit_returns_snapshot_timestamp(self, db):
        ro = db.begin_ro()
        assert ro.commit() == db.latest_timestamp

    def test_query_after_finish_rejected(self, db):
        ro = db.begin_ro()
        ro.commit()
        with pytest.raises(TransactionStateError):
            ro.query(Select("users"))

    def test_abort_allowed(self, db):
        ro = db.begin_ro()
        ro.abort()
        assert not ro.active
