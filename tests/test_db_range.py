"""A ``Range`` conjunct is a filter on whatever path the rest of a select plans.

There is one index kind, the hash index, so a ``Range`` alone plans as a
sequential scan and a ``Range`` beside an indexed ``Eq`` filters that
lookup's rows.  The scan applies the predicate before the visibility check
and folds only matching versions into validity and mask, so a select
returns the same rows, tags and validity interval that a range scan over an
ordered index on ``region`` returned.  The expected values below were
recorded from that range scan over this same history; only the row order of
an unordered select and ``examined`` may differ, so rows are compared as
sorted ids unless the select orders them.
"""

from __future__ import annotations

import pytest

from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.invalidation import InvalidationTag
from repro.db.query import Aggregate, And, Eq, Range, Select
from tests.helpers import simple_schema

SELECTS = {
    "closed": Range("region", 1, 2),
    "exclusive": Range("region", 0, 3, lo_inclusive=False, hi_inclusive=False),
    "open_hi": Range("region", lo=2),
    "open_lo": Range("region", hi=1),
    "open_both": Range("region"),
    "exclusive_open_lo": Range("region", hi=2, hi_inclusive=False),
    "beside_eq": And(Eq("name", "user5"), Range("region", 1, 2)),
    "beside_eq_miss": And(Eq("name", "user4"), Range("region", 1, 2)),
    "two_ranges": And(Range("region", 1, 2), Range("score", 3.0, 9.0)),
    "unindexed": Range("score", 2.0, 7.0, hi_inclusive=False),
}

WILDCARD = (("users", None, None),)

#: Per select, per snapshot (the load at 0, the update at 1, the delete at
#: 2): sorted ids, tags, and the validity interval as ``(lo, hi)``.
EXPECTED = {
    "closed": {
        0: ([1, 2, 5, 6, 9, 10], WILDCARD, (0, 1)),
        1: ([1, 5, 6, 9, 10, 13], WILDCARD, (1, 2)),
        2: ([1, 5, 9, 10, 13], WILDCARD, (2, None)),
    },
    "exclusive": {
        0: ([1, 2, 5, 6, 9, 10], WILDCARD, (0, 1)),
        1: ([1, 5, 6, 9, 10, 13], WILDCARD, (1, 2)),
        2: ([1, 5, 9, 10, 13], WILDCARD, (2, None)),
    },
    "open_hi": {
        0: ([2, 3, 6, 7, 10, 11], WILDCARD, (0, 1)),
        1: ([2, 3, 5, 6, 7, 10, 11], WILDCARD, (1, 2)),
        2: ([2, 3, 5, 7, 10, 11], WILDCARD, (2, None)),
    },
    "open_lo": {
        0: ([1, 4, 5, 8, 9, 12], WILDCARD, (0, 1)),
        1: ([1, 4, 8, 9, 12, 13], WILDCARD, (1, None)),
        2: ([1, 4, 8, 9, 12, 13], WILDCARD, (1, None)),
    },
    "open_both": {
        0: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], WILDCARD, (0, 1)),
        1: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], WILDCARD, (1, 2)),
        2: ([1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13], WILDCARD, (2, None)),
    },
    "exclusive_open_lo": {
        0: ([1, 4, 5, 8, 9, 12], WILDCARD, (0, 1)),
        1: ([1, 4, 8, 9, 12, 13], WILDCARD, (1, None)),
        2: ([1, 4, 8, 9, 12, 13], WILDCARD, (1, None)),
    },
    "beside_eq": {
        0: ([5], (("users", "name", "user5"),), (0, 1)),
        1: ([5], (("users", "name", "user5"),), (1, None)),
        2: ([5], (("users", "name", "user5"),), (1, None)),
    },
    "beside_eq_miss": {
        0: ([], (("users", "name", "user4"),), (0, None)),
        1: ([], (("users", "name", "user4"),), (0, None)),
        2: ([], (("users", "name", "user4"),), (0, None)),
    },
    "two_ranges": {
        0: ([5, 6, 9], WILDCARD, (0, 1)),
        1: ([5, 6, 9], WILDCARD, (1, 2)),
        2: ([5, 9], WILDCARD, (2, None)),
    },
    "unindexed": {
        0: ([2, 3, 4, 5, 6], WILDCARD, (0, 1)),
        1: ([2, 3, 4, 5, 6], WILDCARD, (1, 2)),
        2: ([2, 3, 4, 5], WILDCARD, (2, None)),
    },
}

#: ``Select(Range("region", 1, 2), order_by="score", descending=True,
#: limit=3)``: ids in result order; and its ``count`` aggregate.
EXPECTED_ORDERED = {
    0: ([10, 9, 6], (0, 1)),
    1: ([13, 10, 9], (1, 2)),
    2: ([13, 10, 9], (2, None)),
}
EXPECTED_COUNT = {0: (6, (0, 1)), 1: (6, (1, 2)), 2: (5, (2, None))}

#: The two commits' invalidation messages: every index a touched version is
#: in still yields its tag.
EXPECTED_MESSAGES = [
    (1, [("users", "id", 2), ("users", "id", 5), ("users", "id", 13),
         ("users", "name", "user13"), ("users", "name", "user2"), ("users", "name", "user5"),
         ("users", "region", 1), ("users", "region", 2), ("users", "region", 3)]),
    (2, [("users", "id", 6), ("users", "name", "user6"), ("users", "region", 2)]),
]  # fmt: skip


class _Recorder:
    def __init__(self) -> None:
        self.messages = []

    def process_invalidation(self, message) -> None:
        self.messages.append((message.timestamp, sorted(map(tuple, message.tags))))


def _history():
    """Twelve users, region ``id % 4``; commit 1 moves user 5 inside the
    range [1, 2], moves user 2 out of it and inserts user 13 into it;
    commit 2 deletes user 6, in range."""
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


@pytest.mark.parametrize("timestamp", [0, 1, 2], ids=["before", "between", "after"])
@pytest.mark.parametrize("name", sorted(SELECTS))
def test_a_range_select_returns_what_the_range_scan_returned(history, name, timestamp):
    database, _ = history
    result = database.executor.execute(Select("users", SELECTS[name]), timestamp)
    ids, tags, (lo, hi) = EXPECTED[name][timestamp]
    assert sorted(row["id"] for row in result.rows) == ids
    assert result.tags == frozenset(InvalidationTag(*tag) for tag in tags)
    assert (result.validity.lo, result.validity.hi) == (lo, hi)
    indexed = name.startswith("beside_eq")
    assert result.access_methods == (("index_eq",) if indexed else ("seq_scan",))


@pytest.mark.parametrize("timestamp", [0, 1, 2], ids=["before", "between", "after"])
def test_an_ordered_range_select_and_its_count_keep_their_answers(history, timestamp):
    database, _ = history
    ordered = database.executor.execute(
        Select("users", Range("region", 1, 2), order_by="score", descending=True, limit=3),
        timestamp,
    )
    count = database.executor.execute(
        Aggregate(Select("users", Range("region", 1, 2)), "count"), timestamp
    )
    wildcard = frozenset({InvalidationTag.wildcard("users")})
    ids, validity = EXPECTED_ORDERED[timestamp]
    assert [row["id"] for row in ordered.rows] == ids
    assert (ordered.validity.lo, ordered.validity.hi) == validity and ordered.tags == wildcard
    value, validity = EXPECTED_COUNT[timestamp]
    assert count.scalar() == value
    assert (count.validity.lo, count.validity.hi) == validity and count.tags == wildcard


def test_commits_publish_the_tags_they_did(history):
    _, recorder = history
    assert recorder.messages == EXPECTED_MESSAGES


def test_update_and_delete_with_a_range_touch_the_same_rows():
    database, recorder = _history()
    tx = database.begin_rw()
    assert tx.update("users", Range("region", 1, 2), {"score": -1.0}) == 5
    own = tx.query(Select("users", Range("score", hi=0.0))).rows
    assert sorted(row["id"] for row in own) == [1, 5, 9, 10, 13]
    assert tx.delete("users", And(Eq("name", "user9"), Range("region", 1, 1))) == 1
    assert tx.delete("users", Range("region", lo=2, lo_inclusive=False)) == 4
    assert tx.commit() == 3
    rows = database.executor.execute(Select("users"), 3).rows
    assert sorted((row["id"], row["region"], row["score"]) for row in rows) == [
        (1, 1, -1.0), (4, 0, 4.0), (5, 2, -1.0), (8, 0, 8.0),
        (10, 2, -1.0), (12, 0, 12.0), (13, 1, -1.0),
    ]  # fmt: skip
    touched = [2, 3, 5, 7, 9, 10, 11, 13]
    assert recorder.messages[-1] == (
        3,
        sorted(
            [("users", "id", i) for i in [1, *touched]]
            + [("users", "name", f"user{i}") for i in [1, *touched]]
            + [("users", "region", region) for region in (1, 2, 3)]
        ),
    )
