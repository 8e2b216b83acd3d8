"""Section 8.1: overhead of the database modifications.

The paper compared stock PostgreSQL against its modified version (validity
interval tracking + invalidation tags) and found no observable throughput
difference.  These benchmarks measure the reproduction's executor in both
modes over an identical query stream, plus the incremental cost of vacuuming
with pinned snapshots retained.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.rubis.datagen import IN_MEMORY_CONFIG, populate_database
from repro.apps.rubis.schema import create_rubis_schema
from repro.bench.experiments import validity_tracking_overhead
from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.query import Eq, Select


def _build_database(track_validity: bool) -> Database:
    database = Database(clock=ManualClock(), track_validity=track_validity)
    create_rubis_schema(database)
    populate_database(database, IN_MEMORY_CONFIG.scaled(400), seed=11)
    return database


def _query_stream(database: Database, count: int = 500) -> None:
    rng = random.Random(11)
    items = database.table("items")
    item_ids = [items.row_of(version)["id"] for version in items.scan_versions()]
    transaction = database.begin_ro()
    for _ in range(count):
        transaction.query(Select("items", Eq("id", rng.choice(item_ids))))
    transaction.commit()


@pytest.fixture(scope="module")
def stock_database():
    return _build_database(track_validity=False)


@pytest.fixture(scope="module")
def modified_database():
    return _build_database(track_validity=True)


def test_stock_database_query_stream(benchmark, stock_database):
    benchmark(_query_stream, stock_database)


def test_modified_database_query_stream(benchmark, modified_database):
    benchmark(_query_stream, modified_database)


def test_validity_tracking_overhead_report(benchmark):
    result = benchmark.pedantic(
        validity_tracking_overhead, kwargs={"queries": 1500}, rounds=1, iterations=1
    )
    print("\n" + result.format_table())
    # The paper saw no observable difference; the pure-Python executor pays a
    # measurable but modest bookkeeping cost.  Fail if it ever becomes large.
    assert result.overhead_fraction < 1.5
