"""Loading: what a load stores, and what ``Table.add_version`` refuses.

The RUBiS dataset is the benchmark's starting state, so its loaded form is
pinned by a digest of everything the storage holds: every table's rows and
versions, every index bucket and the mixed-bucket marks.
Making a load cheaper must leave that digest alone.

``add_version`` is the one insert path: ``bulk_load`` and a transaction's
``insert`` and ``update`` all reach it.  Its refusals are part of its
contract, so each is checked through both entry points.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import tracemalloc
import types
from collections.abc import Mapping

import pytest

from repro.apps.rubis import IN_MEMORY_CONFIG, create_rubis_schema, populate_database
from repro.apps.rubis import datagen
from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.errors import ConstraintError
from repro.db.query import Eq, Select
from repro.db.schema import Column, IndexSpec, TableSchema
from repro.db.tuples import TupleVersion

#: SHA-256 of ``_database_digest`` over ``IN_MEMORY_CONFIG.scaled(10)`` at
#: data seed 42 (the benchmark's RUBiS database), and of ``_dataset_digest``
#: over the ids it returns.
RUBIS_DATABASE_SHA256 = "4b83cdeb184f2758232adb328cfe41f8782bd0722108582577ac10a0ffd8462c"
RUBIS_DATASET_SHA256 = "8377486f112fcb4babff3c208d797d2c53684116b7a0dc28e9125a61db5d6e1b"


def _database_digest(database: Database) -> str:
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update(repr(parts).encode())
        digest.update(b"\n")

    for name in sorted(database.tables):
        table = database.table(name)
        feed("table", name, table.row_count(), table.version_count())
        for version in table.scan_versions():
            row = table.row_of(version)
            feed(version.row_id, version.row_id, list(row.items()), version.xmin, version.xmax)
        for column in table.indexed_columns:
            index = table.index_on(column)
            feed("index", column)
            for key in index.keys():
                feed(key, [version.row_id for version in index.lookup(key)])
            feed("mixed", sorted(index._mixed, key=repr))
    return digest.hexdigest()


def _dataset_digest(dataset: datagen.RubisDataset) -> str:
    fields = (
        dataset.user_ids,
        dataset.active_item_ids,
        dataset.old_item_ids,
        dataset.category_ids,
        dataset.region_ids,
        dataset.next_item_id,
        dataset.next_bid_id,
        dataset.next_user_id,
        dataset.next_comment_id,
        dataset.next_buy_now_id,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _rubis_database():
    database = Database(clock=ManualClock())
    create_rubis_schema(database)
    dataset = populate_database(database, IN_MEMORY_CONFIG.scaled(10), seed=42)
    return database, dataset


# ----------------------------------------------------------------------
# The loaded RUBiS data
# ----------------------------------------------------------------------
def test_the_benchmark_rubis_database_loads_byte_identical():
    database, dataset = _rubis_database()
    assert _database_digest(database) == RUBIS_DATABASE_SHA256
    assert _dataset_digest(dataset) == RUBIS_DATASET_SHA256


#: What a loaded row keeps, per row of the benchmark's RUBiS database
#: (61 449 rows): GC-tracked objects, and bytes ``tracemalloc`` still counts
#: after the load.  When each version held a dict and each row a list of its
#: versions, that was 4.20 objects and 902 bytes; as a tuple in column
#: order, with a lone version held without a list, 3.20 and 649; with an
#: index key's lone version held without a list too, 1.36 and 522.
ROW_OBJECTS_BOUND = 1.6
ROW_BYTES_BOUND = 600
#: What a load holds at its peak, per row: the ``tracemalloc`` high-water
#: mark.  Generating every row as a dict before storing any read 965 bytes;
#: streaming the rows into their tables reads 529.
ROW_PEAK_BYTES_BOUND = 700


def test_a_loaded_row_keeps_its_values_and_little_else():
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        bytes_before, _ = tracemalloc.get_traced_memory()
        database, _dataset = _rubis_database()
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        bytes_after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    objects = len(gc.get_objects()) - objects_before
    rows = sum(table.row_count() for table in database.tables.values())
    assert rows == 61449
    assert objects / rows < ROW_OBJECTS_BOUND, objects / rows
    assert (bytes_after - bytes_before) / rows < ROW_BYTES_BOUND, (bytes_after - bytes_before) / rows
    assert (peak - bytes_before) / rows < ROW_PEAK_BYTES_BOUND, (peak - bytes_before) / rows


class _CountingList(list):
    concatenations = 0

    def __add__(self, other):
        _CountingList.concatenations += 1
        return list.__add__(self, other)


class _CountingDataset(datagen.RubisDataset):
    def __setattr__(self, name, value):
        if name in ("active_item_ids", "old_item_ids"):
            value = _CountingList(value)
        super().__setattr__(name, value)


def test_comment_item_ids_are_concatenated_once_per_population(monkeypatch):
    """Comments draw their item from active and old items together; that
    list is built once, not once per comment (which made generation grow
    with comments x items)."""
    monkeypatch.setattr(datagen, "RubisDataset", _CountingDataset)
    monkeypatch.setattr(_CountingList, "concatenations", 0)
    database = Database(clock=ManualClock())
    create_rubis_schema(database)
    config = IN_MEMORY_CONFIG.scaled(1000)
    dataset = populate_database(database, config, seed=42)
    assert isinstance(dataset, _CountingDataset)
    assert database.table("comments").row_count() == config.users > 1
    assert _CountingList.concatenations == 1


# ----------------------------------------------------------------------
# add_version's contract, through bulk_load and through a transaction
# ----------------------------------------------------------------------
def _typed_database() -> Database:
    database = Database(clock=ManualClock())
    database.create_table(
        TableSchema.build(
            "t",
            [
                Column("id", int, nullable=False),
                Column("name", str),
                Column("region", int),
                Column("email", str, nullable=False),
                "note",
            ],
            primary_key="id",
            indexes=["region", IndexSpec("email", unique=True)],
        )
    )
    return database


def _row(i: int, **changes) -> dict:
    row = {"id": i, "name": f"n{i}", "region": i % 3, "email": f"e{i}", "note": None}
    row.update(changes)
    return row


def _bulk_insert(database: Database, rows) -> None:
    database.bulk_load("t", rows)


def _tx_insert(database: Database, rows) -> None:
    tx = database.begin_rw()
    try:
        for row in rows:
            tx.insert("t", row)
    except BaseException:
        tx.commit()
        raise
    tx.commit()


def _stored_ids(database: Database) -> list:
    table = database.table("t")
    return [table.row_of(version)["id"] for version in table.scan_versions()]


LOADERS = pytest.mark.parametrize("load", [_bulk_insert, _tx_insert], ids=["bulk_load", "transaction"])


def _assert_indexes_consistent(database: Database) -> None:
    """Every stored version is indexed once under its own key, every key
    has a version, and the mixed marks name keys."""
    table = database.table("t")
    stored = table.scan_versions()
    for column in table.indexed_columns:
        index = table.index_on(column)
        keys = list(index.keys())
        buckets = {key: index.lookup(key) for key in keys}
        indexed = sorted(
            (version.row_id, id(version)) for bucket in buckets.values() for version in bucket
        )
        assert indexed == sorted((version.row_id, id(version)) for version in stored), column
        assert len(index) == len(indexed)
        for key, bucket in buckets.items():
            assert bucket and all(table.row_of(version)[column] == key for version in bucket)
        assert index._mixed <= set(keys)


@LOADERS
@pytest.mark.parametrize(
    "row, message",
    [
        (_row(1, name=5), "column 'name' expects str, got int"),
        (_row(1, region="r", name=5.0), "column 'name' expects str, got float"),
        (_row(1, id=None), "column 'id' is not nullable"),
        ({k: v for k, v in _row(1).items() if k != "email"}, "column 'email' is not nullable"),
        (_row(1, region=1.5, zeta=1), "column 'region' expects int, got float"),
    ],
    ids=["wrong-type", "first-bad-column", "null-key", "missing-non-nullable", "type-before-unknown"],
)
def test_a_value_that_does_not_fit_raises_the_columns_type_error(load, row, message):
    database = _typed_database()
    with pytest.raises(TypeError) as excinfo:
        load(database, [_row(7), row])
    assert str(excinfo.value) == message
    assert _stored_ids(database) == [7]
    _assert_indexes_consistent(database)


@LOADERS
def test_unknown_columns_raise_a_key_error_naming_them_sorted(load):
    database = _typed_database()
    with pytest.raises(KeyError) as excinfo:
        load(database, [_row(1, zeta=1, alpha=2, beta=None)])
    assert excinfo.value.args == ("unknown columns ['alpha', 'beta', 'zeta'] for table 't'",)
    assert database.table("t").row_count() == 0


@LOADERS
@pytest.mark.parametrize("column", ["id", "email"])
def test_a_duplicate_key_mid_load_keeps_the_earlier_rows_and_every_index(load, column):
    """The duplicate is refused by the primary key's index or, after the
    primary key and the region index took it, by the second unique index;
    either way it is stored nowhere, and the rows before it stay."""
    database = _typed_database()
    duplicate = _row(2) if column == "id" else _row(9, region=5, email="e2")
    with pytest.raises(ConstraintError):
        load(database, [_row(1), _row(2), _row(3), duplicate, _row(4)])
    table = database.table("t")
    assert _stored_ids(database) == [1, 2, 3]
    assert sorted(version.row_id for version in table.scan_versions()) == [1, 2, 3]
    _assert_indexes_consistent(database)
    assert sorted(table.index_on("region").keys()) == [0, 1, 2]
    # The refused row used up a row id: the counter does not roll back.
    assert table.add_version(_row(4), xmin=0).row_id == 5
    _assert_indexes_consistent(database)
    rows = database.begin_ro().query(Select("t", Eq("email", "e2"))).rows
    assert [row["id"] for row in rows] == [2]


class _ReadOnlyRow(Mapping):
    def __init__(self, data: dict) -> None:
        self._data = data

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


@LOADERS
@pytest.mark.parametrize("wrap", [dict, types.MappingProxyType, _ReadOnlyRow])
def test_a_mapping_row_is_accepted_and_copied(load, wrap):
    database = _typed_database()
    source = _row(1)
    load(database, [wrap(source)])
    source["name"] = "changed"
    source["zeta"] = 1
    table = database.table("t")
    (version,) = table.scan_versions()
    assert version.values == (1, "n1", 1, "e1", None)  # schema column order
    assert table.row_of(version) == _row(1)


@LOADERS
def test_a_column_left_out_is_stored_as_none(load):
    database = _typed_database()
    load(database, [{"id": 1, "email": "e1"}, {"email": "e2", "id": 2, "region": 2}])
    table = database.table("t")
    assert [version.values for version in table.scan_versions()] == [
        (1, None, None, "e1", None),
        (2, None, 2, "e2", None),
    ]
    rows = database.begin_ro().query(Select("t", Eq("id", 2))).rows
    assert rows == [{"id": 2, "name": None, "region": 2, "email": "e2", "note": None}]
    assert list(rows[0]) == ["id", "name", "region", "email", "note"]
    _assert_indexes_consistent(database)


def test_an_update_copies_its_row_once_into_a_new_version():
    database = _typed_database()
    database.bulk_load("t", [_row(1)])
    tx = database.begin_rw()
    assert tx.update("t", Eq("id", 1), {"name": "m"}) == 1
    tx.commit()
    table = database.table("t")
    old, new = table.versions_of(1)
    assert table.row_of(old) == _row(1) and table.row_of(new) == _row(1, name="m")
    assert old.values is not new.values
    _assert_indexes_consistent(database)


# ----------------------------------------------------------------------
# TupleVersion
# ----------------------------------------------------------------------
def test_tuple_version_record():
    version = TupleVersion(row_id=1, values=(1,), xmin=0)
    if sys.version_info >= (3, 10):
        assert not hasattr(version, "__dict__")
    assert repr(version) == "TupleVersion(row_id=1, values=(1,), xmin=0, xmax=None)"
    assert version == TupleVersion(1, (1,), 0, None)
    assert version != TupleVersion(1, (1,), 0, 3)
    assert version != TupleVersion(2, (1,), 0)
    assert TupleVersion.__hash__ is None
    version.xmax = 3
    assert version == TupleVersion(1, (1,), 0, 3)
