"""Every statement form a select can take, at snapshots around two commits.

A predicate is an ``Eq``, an ``And`` of them, or none.  An ``Eq`` on an
indexed column plans as an index equality lookup with that key's precise
tag; the first such conjunct of an ``And`` is the one looked up and the
rest filter its rows; anything else is a sequential scan with the wildcard
tag.  The scan applies the predicate before its visibility check and folds
only matching versions into validity, so a row that never changes keeps a
select valid past commits that touch its neighbours.

The history: twelve users, region ``id % 4``; commit 1 moves user 5 from
region 1 to 2, moves user 2 from region 2 to 3 and inserts user 13 into
region 1; commit 2 deletes user 6 (region 2).  The expected values were
recorded when ``In``, ``Range``, ``Or``, ``Not`` and ``Func`` were still in
the query model; the statements below returned these rows, tags and
validity intervals then as now.  Rows are compared as sorted ids unless the
select orders them.
"""

from __future__ import annotations

import pytest

from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.query import Aggregate, And, Eq, Select
from tests.helpers import simple_schema

SELECTS = {
    "all": None,
    "region_left_and_joined": Eq("region", 1),
    "region_joined_left_and_deleted": Eq("region", 2),
    "region_joined": Eq("region", 3),
    "region_never_held": Eq("region", 9),
    "id_moved": Eq("id", 5),
    "id_deleted": Eq("id", 6),
    "id_inserted": Eq("id", 13),
    "id_untouched": Eq("id", 4),
    "name_moved": Eq("name", "user2"),
    "unindexed_moved": Eq("score", 5.0),
    "unindexed_untouched": Eq("score", 4.0),
    "unindexed_never_held": Eq("score", 0.5),
    "beside_eq": And(Eq("name", "user5"), Eq("region", 2)),
    "beside_eq_miss": And(Eq("name", "user4"), Eq("region", 2)),
    "beside_unindexed": And(Eq("region", 2), Eq("score", 6.0)),
    "unindexed_first": And(Eq("score", 10.0), Eq("region", 2)),
    "two_indexed": And(Eq("id", 2), Eq("region", 2)),
    "contradiction": And(Eq("region", 1), Eq("region", 2)),
}

WILDCARD = ("users", None, None)

#: Per select, per snapshot (the load at 0, commit 1, commit 2): sorted ids,
#: the one tag, and the validity interval as ``(lo, hi)``.
EXPECTED = {
    "all": {
        0: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], WILDCARD, (0, 1)),
        1: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], WILDCARD, (1, 2)),
        2: ([1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13], WILDCARD, (2, None)),
    },
    "region_left_and_joined": {
        0: ([1, 5, 9], ("users", "region", 1), (0, 1)),
        1: ([1, 9, 13], ("users", "region", 1), (1, None)),
        2: ([1, 9, 13], ("users", "region", 1), (1, None)),
    },
    "region_joined_left_and_deleted": {
        0: ([2, 6, 10], ("users", "region", 2), (0, 1)),
        1: ([5, 6, 10], ("users", "region", 2), (1, 2)),
        2: ([5, 10], ("users", "region", 2), (2, None)),
    },
    "region_joined": {
        0: ([3, 7, 11], ("users", "region", 3), (0, 1)),
        1: ([2, 3, 7, 11], ("users", "region", 3), (1, None)),
        2: ([2, 3, 7, 11], ("users", "region", 3), (1, None)),
    },
    "region_never_held": {
        0: ([], ("users", "region", 9), (0, None)),
        1: ([], ("users", "region", 9), (0, None)),
        2: ([], ("users", "region", 9), (0, None)),
    },
    "id_moved": {
        0: ([5], ("users", "id", 5), (0, 1)),
        1: ([5], ("users", "id", 5), (1, None)),
        2: ([5], ("users", "id", 5), (1, None)),
    },
    "id_deleted": {
        0: ([6], ("users", "id", 6), (0, 2)),
        1: ([6], ("users", "id", 6), (0, 2)),
        2: ([], ("users", "id", 6), (2, None)),
    },
    "id_inserted": {
        0: ([], ("users", "id", 13), (0, 1)),
        1: ([13], ("users", "id", 13), (1, None)),
        2: ([13], ("users", "id", 13), (1, None)),
    },
    "id_untouched": {
        0: ([4], ("users", "id", 4), (0, None)),
        1: ([4], ("users", "id", 4), (0, None)),
        2: ([4], ("users", "id", 4), (0, None)),
    },
    "name_moved": {
        0: ([2], ("users", "name", "user2"), (0, 1)),
        1: ([2], ("users", "name", "user2"), (1, None)),
        2: ([2], ("users", "name", "user2"), (1, None)),
    },
    "unindexed_moved": {
        0: ([5], WILDCARD, (0, 1)),
        1: ([5], WILDCARD, (1, None)),
        2: ([5], WILDCARD, (1, None)),
    },
    "unindexed_untouched": {
        0: ([4], WILDCARD, (0, None)),
        1: ([4], WILDCARD, (0, None)),
        2: ([4], WILDCARD, (0, None)),
    },
    "unindexed_never_held": {
        0: ([], WILDCARD, (0, None)),
        1: ([], WILDCARD, (0, None)),
        2: ([], WILDCARD, (0, None)),
    },
    "beside_eq": {
        0: ([], ("users", "name", "user5"), (0, 1)),
        1: ([5], ("users", "name", "user5"), (1, None)),
        2: ([5], ("users", "name", "user5"), (1, None)),
    },
    "beside_eq_miss": {
        0: ([], ("users", "name", "user4"), (0, None)),
        1: ([], ("users", "name", "user4"), (0, None)),
        2: ([], ("users", "name", "user4"), (0, None)),
    },
    "beside_unindexed": {
        0: ([6], ("users", "region", 2), (0, 2)),
        1: ([6], ("users", "region", 2), (0, 2)),
        2: ([], ("users", "region", 2), (2, None)),
    },
    "unindexed_first": {
        0: ([10], ("users", "region", 2), (0, None)),
        1: ([10], ("users", "region", 2), (0, None)),
        2: ([10], ("users", "region", 2), (0, None)),
    },
    "two_indexed": {
        0: ([2], ("users", "id", 2), (0, 1)),
        1: ([], ("users", "id", 2), (1, None)),
        2: ([], ("users", "id", 2), (1, None)),
    },
    "contradiction": {
        0: ([], ("users", "region", 1), (0, None)),
        1: ([], ("users", "region", 1), (0, None)),
        2: ([], ("users", "region", 1), (0, None)),
    },
}

#: ``Select(Eq("region", 2), order_by="score", descending=True, limit=2)``:
#: ids in result order and validity; its ``count``; ``max`` of ``id`` over
#: every row.
EXPECTED_ORDERED = {0: ([10, 6], (0, 1)), 1: ([10, 6], (1, 2)), 2: ([10, 5], (2, None))}
EXPECTED_COUNT = {0: (3, (0, 1)), 1: (3, (1, 2)), 2: (2, (2, None))}
EXPECTED_MAX = {0: (12, (0, 1)), 1: (13, (1, 2)), 2: (13, (2, None))}


class _Recorder:
    def __init__(self) -> None:
        self.messages = []

    def process_invalidation(self, message) -> None:
        self.messages.append((message.timestamp, sorted(map(tuple, message.tags))))


def _history():
    database = Database(clock=ManualClock())
    database.create_table(simple_schema())
    database.bulk_load(
        "users",
        [{"id": i, "name": f"user{i}", "region": i % 4, "score": float(i)} for i in range(1, 13)],
    )
    recorder = _Recorder()
    database.invalidation_bus.subscribe(recorder)
    tx = database.begin_rw()
    tx.update("users", Eq("id", 5), {"region": 2})
    tx.update("users", Eq("id", 2), {"region": 3})
    tx.insert("users", {"id": 13, "name": "user13", "region": 1, "score": 13.0})
    assert tx.commit() == 1
    tx = database.begin_rw()
    tx.delete("users", Eq("id", 6))
    assert tx.commit() == 2
    return database, recorder


@pytest.fixture(scope="module")
def history():
    return _history()


def _interval(result):
    return (result.validity.lo, result.validity.hi)


@pytest.mark.parametrize("timestamp", [0, 1, 2], ids=["before", "between", "after"])
@pytest.mark.parametrize("name", sorted(SELECTS))
def test_a_select_returns_its_rows_tag_and_validity(history, name, timestamp):
    database, _ = history
    result = database.executor.execute(Select("users", SELECTS[name]), timestamp)
    ids, tag, validity = EXPECTED[name][timestamp]
    assert sorted(row["id"] for row in result.rows) == ids
    assert sorted(map(tuple, result.tags)) == [tag]
    assert _interval(result) == validity
    assert result.access_methods == (("seq_scan",) if tag == WILDCARD else ("index_eq",))


@pytest.mark.parametrize("timestamp", [0, 1, 2], ids=["before", "between", "after"])
def test_an_ordered_select_and_the_aggregates_keep_their_answers(history, timestamp):
    database, _ = history
    execute = database.executor.execute
    ordered = execute(
        Select("users", Eq("region", 2), order_by="score", descending=True, limit=2), timestamp
    )
    count = execute(Aggregate(Select("users", Eq("region", 2)), "count"), timestamp)
    maximum = execute(Aggregate(Select("users"), "max", "id"), timestamp)
    ids, validity = EXPECTED_ORDERED[timestamp]
    assert [row["id"] for row in ordered.rows] == ids
    assert _interval(ordered) == validity
    assert (count.scalar(), _interval(count)) == EXPECTED_COUNT[timestamp]
    assert (maximum.scalar(), _interval(maximum)) == EXPECTED_MAX[timestamp]
    assert sorted(map(tuple, ordered.tags)) == sorted(map(tuple, count.tags))
    assert sorted(map(tuple, count.tags)) == [("users", "region", 2)]
    assert sorted(map(tuple, maximum.tags)) == [WILDCARD]


def test_update_and_delete_touch_the_rows_their_predicates_match():
    database, recorder = _history()
    tx = database.begin_rw()
    assert tx.update("users", Eq("region", 2), {"score": -1.0}) == 2
    own = tx.query(Select("users", Eq("score", -1.0))).rows
    assert sorted(row["id"] for row in own) == [5, 10]
    assert tx.delete("users", And(Eq("name", "user9"), Eq("region", 1))) == 1
    assert tx.delete("users", Eq("region", 3)) == 4
    assert tx.commit() == 3
    rows = database.executor.execute(Select("users"), 3).rows
    assert sorted((row["id"], row["region"], row["score"]) for row in rows) == [
        (1, 1, 1.0), (4, 0, 4.0), (5, 2, -1.0), (8, 0, 8.0),
        (10, 2, -1.0), (12, 0, 12.0), (13, 1, 13.0),
    ]  # fmt: skip
    touched = [2, 3, 5, 7, 9, 10, 11]
    assert recorder.messages[-1] == (
        3,
        sorted(
            [("users", "id", i) for i in touched]
            + [("users", "name", f"user{i}") for i in touched]
            + [("users", "region", region) for region in (1, 2, 3)]
        ),
    )
