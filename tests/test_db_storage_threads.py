"""A table's rows and histories under concurrent writers, readers and vacuum.

Read-only queries run lock-free (see ``repro.db.database``), so a scan may
walk a table while another thread inserts into it, and a row may gain
versions while vacuum removes its superseded ones.  The threaded tests run
at a switch interval of a microsecond, so the interpreter hands over
between threads as often as it can; where a race has one narrow window,
a forced interleaving hits it every time.  An index key's bucket, like a
row's slot, holds a lone version until the key's second, and every change
to an index's buckets is made under that index's lock.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.errors import SerializationError
from repro.db.index import HashIndex
from repro.db.query import Eq, Select
from repro.db.schema import IndexSpec, TableSchema
from repro.db.tuples import TupleVersion


@contextmanager
def _switching_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _database(rows: int) -> Database:
    database = Database(clock=ManualClock())
    database.create_table(TableSchema.build("t", ["id", "v"], primary_key="id"))
    database.bulk_load("t", [{"id": i, "v": i} for i in range(rows)])
    return database


def _run(*targets) -> None:
    """Run each target on its own thread; re-raise the first error."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - handed to the test
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    with _switching_often():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def test_a_sequential_scan_survives_inserts_committed_under_it():
    """A scan that walked the live row dict raised ``RuntimeError:
    dictionary changed size during iteration`` when an insert landed
    mid-walk."""
    database = _database(200)
    # ``v`` has no index: a sequential scan of every version.  Row 0 and
    # every inserted row match.
    query = Select("t", Eq("v", 0))
    done = threading.Event()
    seen = []

    def insert():
        try:
            for next_id in range(200, 2200):
                transaction = database.begin_rw()
                transaction.insert("t", {"id": next_id, "v": 0})
                transaction.commit()
        finally:
            done.set()

    def scan():
        for _ in range(3000):
            if done.is_set():
                break
            timestamp = database.latest_timestamp
            result = database.executor.execute(query, timestamp)
            seen.append((timestamp, len(result.rows)))

    _run(insert, scan)
    # Commit ``t`` inserted row ``199 + t``: the snapshot sees row 0 and
    # the ``t`` rows inserted so far.
    assert seen and all(rows == 1 + timestamp for timestamp, rows in seen)


def test_a_row_updated_while_vacuum_removes_its_past_keeps_its_history():
    """One thread updates a row over and over; another vacuums its
    superseded versions, held back by a pinned snapshot until it is released
    midway.  The row's lone version becomes a list at its first update and
    stays one, so no version lands on a list that has left the table."""
    database = _database(5)
    table = database.table("t")
    pinned = database.pin_latest()
    updates = 400
    halfway, released, done = threading.Event(), threading.Event(), threading.Event()
    vacuumed = []

    def update():
        try:
            for i in range(updates):
                transaction = database.begin_rw()
                assert transaction.update("t", Eq("id", 3), {"v": 1000 + i}) == 1
                transaction.commit()
                if i == updates // 2:
                    assert len(table.versions_of(4)) == i + 2  # the pin kept them
                    halfway.set()
                    assert released.wait(10)
        finally:
            done.set()

    def vacuum():
        while not done.is_set():
            if halfway.is_set() and not released.is_set():
                database.unpin(pinned)
                vacuumed.append(database.vacuum())
                released.set()
            vacuumed.append(database.vacuum())

    _run(update, vacuum)
    assert sum(vacuumed) > updates // 2
    (current,) = [v for v in table.scan_versions() if v.row_id == 4 and v.is_current()]
    # Exactly the versions vacuum has not reached, then the current one.
    not_vacuumed = [version for _table, version in database.superseded if version.row_id == 4]
    assert table.versions_of(4) == not_vacuumed + [current]
    assert table.index_on("id").lookup(3) == table.versions_of(4)
    assert table.version_count() == 5 + len(not_vacuumed)
    assert table.row_of(current) == {"id": 3, "v": 1000 + updates - 1}
    rows = database.begin_ro().query(Select("t", Eq("v", 1000 + updates - 1))).rows
    assert rows == [{"id": 3, "v": 1000 + updates - 1}]
    database.vacuum()
    assert table.versions_of(4) == [current]


class _VacuumBetweenReadAndAppend(dict):
    """A row map that runs a vacuum each time an UPDATE has read a row's
    slot, before it appends to it: the interleaving the threaded test above
    can only hope to hit."""

    def __init__(self, rows, database, row_id) -> None:
        super().__init__(rows)
        self.database, self.row_id, self.armed = database, row_id, False

    def get(self, key, default=None):
        slot = super().get(key, default)
        if self.armed and key == self.row_id:
            self.armed = False  # the vacuum's own reads pass through
            self.database.vacuum()
        return slot


def test_a_vacuum_between_reading_a_rows_slot_and_appending_to_it_loses_nothing():
    database = _database(5)
    table = database.table("t")
    rows = table._rows = _VacuumBetweenReadAndAppend(table._rows, database, 4)
    for i in range(5):
        transaction = database.begin_rw()
        rows.armed = True
        assert transaction.update("t", Eq("id", 3), {"v": 100 + i}) == 1
        transaction.commit()
        (current,) = table.versions_of(4)[-1:]
        assert table.row_of(current) == {"id": 3, "v": 100 + i}
        assert table.index_on("id").lookup(3) == table.versions_of(4)


# ----------------------------------------------------------------------
# An index key's bucket under a remover and inserters
# ----------------------------------------------------------------------
def _index(unique: bool = True) -> HashIndex:
    return HashIndex(IndexSpec("k", unique=unique), 0)


def _version(row_id: int, key, xmax=None) -> TupleVersion:
    return TupleVersion(row_id, (key,), 0, xmax)


def _assert_keys_hold(index: HashIndex, expected: dict) -> None:
    lost = {key: versions for key, versions in expected.items() if index.lookup(key) != versions}
    assert not lost, f"{len(lost)} keys lost a version, e.g. {next(iter(lost.items()))}"
    assert len(index) == sum(len(versions) for versions in expected.values())


def test_an_insert_racing_the_removal_of_its_keys_last_version_survives():
    """One thread removes the only version of each key while another
    inserts a new version of each.  A remove that found a bucket empty and
    deleted it in a second step took an insert landing in between with it."""
    keys = 50_000
    index = _index()
    old = [_version(key, key, xmax=1) for key in range(keys)]  # dead: vacuum's to remove
    new = [_version(keys + key, key) for key in range(keys)]
    for version in old:
        index.insert(version)

    def remove():
        for version in old:
            index.remove(version)

    def insert():
        for version in new:
            index.insert(version)

    _run(remove, insert)
    _assert_keys_hold(index, {key: [new[key]] for key in range(keys)})


class _InsertDuringDelete(dict):
    """Buckets that, as ``remove`` deletes the armed key, start an insert of
    that key on another thread and give it a moment to land: the
    interleaving the threaded test above can only hope to hit."""

    def __init__(self, buckets, index, version) -> None:
        super().__init__(buckets)
        self.index, self.version, self.inserter = index, version, None

    def __delitem__(self, key) -> None:
        if self.inserter is None and key == self.index.key_of(self.version):
            self.inserter = threading.Thread(target=self.index.insert, args=(self.version,))
            self.inserter.start()
            self.inserter.join(0.05)
        super().__delitem__(key)


def test_an_insert_between_a_removes_empty_check_and_its_delete_survives():
    index = _index()
    old, other, new = _version(1, "k", xmax=1), _version(2, "j"), _version(3, "k")
    index.insert(old)
    index.insert(other)
    index._buckets = buckets = _InsertDuringDelete(index._buckets, index, new)
    assert index.remove(old)
    buckets.inserter.join()
    _assert_keys_hold(index, {"j": [other], "k": [new]})


def test_two_inserts_racing_to_give_lone_keys_a_second_version_keep_both():
    """Every key holds one version; two threads each add a version under
    every key of a non-unique index, so both race to turn the lone version
    into a list."""
    keys = 20_000
    index = _index(unique=False)
    first = [_version(key, key) for key in range(keys)]
    for version in first:
        index.insert(version)
    seconds = [[_version((1 + side) * keys + key, key) for key in range(keys)] for side in (0, 1)]

    def inserter(versions):
        def insert():
            for version in versions:
                index.insert(version)

        return insert

    _run(inserter(seconds[0]), inserter(seconds[1]))
    for key in range(keys):
        versions = index.lookup(key)
        assert versions[0] is first[key]
        assert sorted(versions[1:], key=id) == sorted([seconds[0][key], seconds[1][key]], key=id), key
    assert len(index) == 3 * keys


# ----------------------------------------------------------------------
# Two writers claiming one row
# ----------------------------------------------------------------------
_XMAX = TupleVersion.xmax  # the slot itself, under the property below


class _ClaimReadReplayed(TupleVersion):
    """A version whose ``xmax``, read by a write claim, first lets another
    writer's whole update run on its own thread and then hands the claim
    what it read before that writer started: the one interleaving in which
    two writers both find the row unclaimed."""

    __slots__ = ()
    rival = None

    @property
    def xmax(self):
        value = _XMAX.__get__(self)
        rival = _ClaimReadReplayed.rival
        if rival is not None and sys._getframe(1).f_code.co_name == "_claim_for_write":
            _ClaimReadReplayed.rival = None
            rival.start()
            rival.join(timeout=0.5)  # a claim under a lock holds the rival back
        return value

    @xmax.setter
    def xmax(self, value):
        _XMAX.__set__(self, value)


def test_a_write_claim_and_a_rival_update_of_its_row_leave_one_current_version():
    database = _database(5)
    (version,) = database.table("t").index_on("id").lookup(3)
    outcome = []

    def rival():
        transaction = database.begin_rw()
        try:
            transaction.update("t", Eq("id", 3), {"v": 200})
        except SerializationError:
            transaction.abort()
            outcome.append("refused")
        else:
            transaction.commit()
            outcome.append("committed")

    version.__class__ = _ClaimReadReplayed
    _ClaimReadReplayed.rival = thread = threading.Thread(target=rival)
    writer = database.begin_rw()
    assert writer.update("t", Eq("id", 3), {"v": 100}) == 1
    thread.join(10)  # started by the claim's read
    writer.commit()
    # A sequential scan (``v`` has no index) finds every current version.
    scan = database.begin_ro().query
    assert scan(Select("t", Eq("v", 100))).rows == [{"id": 3, "v": 100}]
    assert scan(Select("t", Eq("v", 200))).rows == []
    assert outcome == ["refused"]
