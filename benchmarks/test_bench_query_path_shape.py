"""A query costs the versions it examined, in integer compares.

The database returns every result with its validity interval: the validity
of the tuples returned minus the invalidity mask of the matching versions
that failed the visibility check (paper section 5.2).  A no-overwrite table
keeps dead versions for pinned snapshots, so a primary-key select examines a
chain of them, and tracking validity must not turn each into objects and
function calls.  Asserted as *shape*, by counting under ``sys.setprofile``
(deterministic, no clock): how many ``Interval``s one query constructs, that
it never enters the interval-set algebra, and that its Python function calls
do not grow with the chain it walks.
"""

from __future__ import annotations

from collections import Counter

import pytest

from benchmarks.test_bench_lookup_path_shape import _profiled
from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.query import And, Eq, Select
from repro.db.schema import TableSchema
from repro.interval import Interval, IntervalSet

ROWS = 20
ROW = 7
QUERIES = 200
CHAINS = (0, 10, 40)


def _python_calls(action) -> Counter:
    """Run ``action``; return its Python-level calls into the database layer
    and the interval algebra, by code object — dataclass-generated methods
    (compiled from ``<string>``) included.  Whatever else the interpreter
    runs meanwhile (a finalizer, a garbage-collection callback left by an
    earlier test) is not the query's."""
    python_calls, _ = _profiled(action)
    return Counter(
        {
            code: count
            for code, count in python_calls.items()
            if "/repro/db/" in code.co_filename
            or code.co_filename.endswith("/repro/interval.py")
            or code.co_filename == "<string>"
        }
    )


def _database(dead_versions: int) -> Database:
    """``items`` with one row that has been updated ``dead_versions`` times."""
    database = Database(clock=ManualClock())
    database.create_table(
        TableSchema.build("items", ["id", "region", "price"], primary_key="id")
    )
    database.bulk_load("items", [{"id": i, "region": i % 3, "price": i} for i in range(ROWS)])
    database.pin_latest()  # snapshot 0 stays readable: vacuum keeps the chain
    for price in range(dead_versions):
        transaction = database.begin_rw()
        transaction.update("items", Eq("id", ROW), {"price": 100 + price})
        transaction.commit()
    assert database.vacuum() == 0
    return database


def _profile_selects(database: Database, query: Select, snapshot_id: int):
    transaction = database.begin_ro(snapshot_id=snapshot_id)
    results = []

    def run():
        for _ in range(QUERIES):
            results.append(transaction.query(query))

    calls = _python_calls(run)
    return calls, results


@pytest.mark.parametrize("snapshot", ["latest", "oldest"])
def test_a_primary_key_select_costs_the_same_calls_whatever_the_chain(snapshot):
    """At the latest snapshot every dead version ended at or before it (the
    mask's floor), and the newest-first walk stops at the current version;
    at the oldest every newer version began after it (the mask's ceiling),
    and the walk visits them all.  Either way: one ``Interval`` per query,
    no interval set, and not one Python call per version."""
    query = Select("items", Eq("id", ROW))
    calls_per_query = {}
    for dead in CHAINS:
        database = _database(dead)
        at = database.latest_timestamp if snapshot == "latest" else 0
        calls, results = _profile_selects(database, query, at)
        for result in results:
            assert result.examined == (1 if snapshot == "latest" else dead + 1)
            assert len(result.rows) == 1
            if snapshot == "latest":
                assert result.validity == Interval(dead, None)
            else:
                assert result.validity == (Interval(0, 1) if dead else Interval(0, None))
        # One Interval per query: the result's validity.
        assert calls[Interval.__init__.__code__] == QUERIES
        # The mask is two integers; the interval-set algebra never runs.
        assert calls[IntervalSet.add.__code__] == 0
        assert calls[IntervalSet.__init__.__code__] == 0
        assert calls[Interval.union_hull.__code__] == 0
        assert calls[Interval.intersect.__code__] == 0
        calls_per_query[dead] = sum(calls.values()) / QUERIES
    print(
        f"\nPython function calls in db/ and interval.py per primary-key select ({snapshot} snapshot): "
        + ", ".join(f"{dead} dead versions {count:.1f}" for dead, count in calls_per_query.items())
    )
    # The index condition is the whole predicate: no call per version.
    assert calls_per_query[10] == calls_per_query[0]
    assert calls_per_query[40] == calls_per_query[0]


def test_a_wider_predicate_is_evaluated_per_version_and_nothing_else_is():
    """With a second conjunct the predicate must run on every version the
    walk visits — all of them at the oldest snapshot, which every newer
    version began after; the visibility check and the mask still add no
    call and no object."""
    query = Select("items", And(Eq("id", ROW), Eq("region", ROW % 3)))
    predicate_calls, other_calls = {}, {}
    for dead in CHAINS:
        database = _database(dead)
        calls, results = _profile_selects(database, query, 0)
        assert all(result.examined == dead + 1 and len(result.rows) == 1 for result in results)
        assert calls[Interval.__init__.__code__] == QUERIES
        assert calls[IntervalSet.add.__code__] == 0
        assert calls[And.matches.__code__] == QUERIES * (dead + 1)
        in_predicate = sum(
            count for code, count in calls.items() if code.co_filename.endswith("db/query.py")
        )
        predicate_calls[dead] = in_predicate / QUERIES
        other_calls[dead] = (sum(calls.values()) - in_predicate) / QUERIES
    print(
        "\nPython function calls in db/ and interval.py per select, two-conjunct predicate: "
        + ", ".join(
            f"{dead} dead versions {other_calls[dead]:.1f} + {predicate_calls[dead]:.1f} in the predicate"
            for dead in CHAINS
        )
    )
    assert other_calls[10] == other_calls[0]
    assert other_calls[40] == other_calls[0]
