"""A table's rows and histories under concurrent writers, readers and vacuum.

Read-only queries run lock-free (see ``repro.db.database``), so a scan may
walk a table while another thread inserts into it, and a row may gain
versions while vacuum removes its superseded ones.  The threaded tests run
at a switch interval of a microsecond, so the interpreter hands over
between threads as often as it can; the last test forces the one
interleaving that would lose a version if a row's list of versions ever
turned back into a lone version.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

from repro.clock import ManualClock
from repro.db.database import Database
from repro.db.query import Eq, Func, Select
from repro.db.schema import TableSchema


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
    query = Select("t", Func(lambda row: row["v"] >= 0))
    done = threading.Event()
    seen = []

    def insert():
        try:
            for next_id in range(200, 2200):
                transaction = database.begin_rw()
                transaction.insert("t", {"id": next_id, "v": next_id})
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
    # Commit ``t`` inserted row ``199 + t``: the snapshot sees 200 + t rows.
    assert seen and all(rows == 200 + timestamp for timestamp, rows in seen)


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
    rows = database.begin_ro().query(Select("t", Func(lambda row: row["id"] == 3))).rows
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
