"""The database server facade.

:class:`Database` ties together the storage, executor, transaction machinery,
snapshot pinning, and the invalidation stream, exposing the interface the
TxCache library expects from its modified PostgreSQL (paper section 5):

* ``begin_rw()`` — read/write transactions run on the latest snapshot and
  publish invalidation tags at commit;
* ``begin_ro(snapshot_id)`` — read-only transactions can run against the
  latest state or against a previously *pinned* snapshot (``BEGIN
  SNAPSHOTID``);
* ``pin_latest()`` / ``unpin()`` — retain a recent snapshot so later queries
  can still run at that point in time (``PIN`` / ``UNPIN``);
* per-query validity intervals and invalidation tags via the executor;
* an ordered invalidation stream published on an
  :class:`repro.comm.multicast.InvalidationBus`;
* a vacuum that reclaims tuple versions no pinned snapshot can see.

Thread safety
-------------
The coarse-grained pieces concurrent clients contend on are protected by
:attr:`Database.commit_lock`, a reentrant lock serializing the commit
critical section (timestamp allocation, version stamping, and the
invalidation *enqueue* — held together so the bus always sees commits in
timestamp order), snapshot pinning, and vacuum.  Invalidation *delivery*
runs after the lock is released (:meth:`Database.deliver_invalidations`):
it can block on networked cache nodes, and a hung node must never stall
readers queued on the commit lock.  The lock order is database ->
invalidation bus -> cache server; no path takes them in the other
direction.

Storage concurrency
-------------------
This is the one statement of who may change the stored versions, under
which lock, and why each step that takes no lock is safe; ``table.py`` and
``index.py`` point here.  Three kinds of actor touch storage.

*Readers* — every query, read-only or inside a read/write transaction —
change nothing and take no lock.  A reader's snapshot timestamp makes
versions stamped by later commits invisible, so it needs only to see each
structure whole.  Each step that reads shared state is one C-level
operation, which no other Python thread can interleave with:

* a version's ``xmin`` and ``xmax`` are single attribute loads, and a
  commit stamps them with single reference stores;
* a table's rows are its primary-key index's buckets:
  ``Table.scan_versions`` (``HashIndex.versions``) copies the buckets with
  one ``list(dict.values())`` and each list bucket with one
  ``list.extend``;
* ``HashIndex.lookup`` and ``walk`` (and so ``Table.versions_of`` and
  ``current_version_of``) read a bucket with one ``dict.get`` and copy a
  list bucket with one slice (``walk`` reads ``_mixed`` after its copy: a
  writer marks a key before it publishes the version that mixes it);
* a key's lone version is a single reference: a reader holds either the
  lone version or the list that replaced it, and both hold every version
  a snapshot older than the write can see.

*Writers* — a read/write transaction's ``insert``, ``update`` and
``delete``, ``abort``, and ``bulk_load`` — add and drop versions outside
the commit lock:

* each index's buckets and ``_mixed`` marks, the primary key's (the rows)
  included, change only under that index's own lock
  (``HashIndex._lock``): bucket creation, the lone-to-list upgrade (the
  unique check and the ``_mixed`` mark come before the list is
  published), an append, and ``remove``'s empty-check-and-delete are each
  one critical section.  A list never turns back into a lone version, and
  a bucket emptied and deleted is created afresh by the next insert, so
  no append lands on a list that has left the index.  That lock is the
  one rule for writers of storage;
* a row's next version is added only by the writer that holds the write
  claim on its current version (``xmax`` set to its mark), taken by
  ``_claim_for_write`` under the commit lock;
* ``commit`` stamps ``xmin`` and ``xmax``, appends to :attr:`superseded`
  and enqueues invalidations under the commit lock.

*Vacuum* runs under the commit lock, so no commit interleaves with it, and
removes only versions superseded at or before its horizon: never a row's
current version, so a row being updated keeps its bucket.  It drops a
version from each index, its row's bucket included, under that index's
lock.  An abort removes its own uncommitted versions the same way.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.clock import Clock, SystemClock
from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.db.errors import SnapshotTooOldError, UnknownTableError
from repro.db.executor import Executor
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.db.transactions import ReadOnlyTransaction, ReadWriteTransaction
from repro.db.tuples import TupleVersion, next_uncommitted_mark_id

__all__ = ["Database", "DatabaseStats"]


@dataclass
class DatabaseStats:
    """Aggregate counters for one database instance."""

    commits: int = 0
    aborts: int = 0
    ro_transactions: int = 0
    rw_transactions: int = 0
    invalidations_published: int = 0
    pins: int = 0
    unpins: int = 0
    vacuum_runs: int = 0
    versions_vacuumed: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class Database:
    """An in-process multiversion database with TxCache support."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        invalidation_bus: Optional[InvalidationBus] = None,
        track_validity: bool = True,
        name: str = "db",
    ) -> None:
        self.name = name
        self.clock = clock or SystemClock()
        self.invalidation_bus = invalidation_bus or InvalidationBus()
        self._catalog: Dict[str, Table] = {}
        self.executor = Executor(self._catalog, track_validity=track_validity)
        self.stats = DatabaseStats()
        #: Serializes commits (timestamp allocation through invalidation
        #: publish), pin bookkeeping, and vacuum; see "Thread safety" above.
        #: Reentrant because a committing transaction re-enters the database
        #: (allocate_commit_timestamp, register_commit) under the same lock.
        self.commit_lock = threading.RLock()
        #: last committed logical timestamp; the initial load commits at 0.
        self._last_committed = 0
        #: The commits vacuum has not yet put out of reach, as two parallel
        #: columns — logical timestamp, wall-clock time of the commit — that
        #: commits append to under the commit lock.  Both ascend, so either
        #: is searched by bisection; :meth:`vacuum` drops the rows below
        #: ``_oldest_available``, all but the newest.
        self._commit_timestamps: List[int] = [0]
        self._commit_wallclocks: List[float] = [self.clock.now()]
        #: pinned snapshot timestamp -> pin reference count.
        self._pins: Dict[int, int] = {}
        #: snapshots older than this may have been vacuumed away.
        self._oldest_available = 0
        #: ``(table, version)`` for every version a commit superseded and
        #: vacuum has not yet removed; appended under the commit lock as
        #: ``xmax`` is stamped, so in ``xmax`` order.  Vacuum pops dead ones
        #: off the left.
        self.superseded: Deque[Tuple[Table, TupleVersion]] = deque()

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from ``schema`` and register it in the catalog."""
        if schema.name in self._catalog:
            raise ValueError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._catalog[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        """Return the table named ``name``."""
        try:
            return self._catalog[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    @property
    def tables(self) -> Dict[str, Table]:
        """The full table catalog."""
        return dict(self._catalog)

    def bulk_load(self, table_name: str, rows) -> int:
        """Load initial data outside any transaction.

        Rows become visible at timestamp 0 (the initial state of the
        database) and no invalidations are published — this models restoring
        a database snapshot before an experiment, as the paper does.  Each
        row goes through :meth:`Table.add_version`, the one insert path,
        which stores its values as a tuple in column order.  ``rows`` may be
        any iterable of mappings, a generator included: it is consumed one
        row at a time, and each row is stored before the next is drawn.
        """
        add_version = self.table(table_name).add_version
        count = 0
        for values in rows:
            add_version(values, 0)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Timestamps and wall-clock mapping
    # ------------------------------------------------------------------
    @property
    def latest_timestamp(self) -> int:
        """Commit timestamp of the most recently committed transaction.

        Read under the commit lock: a writer holds it from timestamp
        allocation until its versions are stamped, so a reader can never be
        handed a snapshot id whose commit is only half-applied.
        """
        with self.commit_lock:
            return self._last_committed

    def allocate_commit_timestamp(self) -> int:
        """Allocate the next commit timestamp (called by committing writers).

        Callers must hold :attr:`commit_lock` until the commit is registered
        (``ReadWriteTransaction.commit`` does), so timestamps are published
        on the invalidation stream in allocation order.
        """
        with self.commit_lock:
            self._last_committed += 1
            return self._last_committed

    def register_commit(self, timestamp: int, tags: frozenset) -> None:
        """Record a commit and enqueue its invalidation message.

        The message is only *enqueued* here (cheap, order-validated); the
        committer delivers it via :meth:`deliver_invalidations` after
        releasing the commit lock.  Delivery can block on networked cache
        nodes, and holding the commit lock across that would let one hung
        node stall every reader and writer queued on the lock.
        """
        with self.commit_lock:
            self._commit_timestamps.append(timestamp)
            # A commit is not older than the one before it, whatever a
            # system clock stepping backwards says.
            self._commit_wallclocks.append(max(self.clock.now(), self._commit_wallclocks[-1]))
            self.stats.commits += 1
            if tags:
                self.invalidation_bus.enqueue(
                    InvalidationMessage(timestamp=timestamp, tags=tuple(tags))
                )
                self.stats.invalidations_published += 1

    def deliver_invalidations(self) -> None:
        """Deliver enqueued invalidations (committers call this unlocked).

        A no-op when the bus is in deferred mode (tests drive delivery
        explicitly there).  Safe even when a node is slow or dead: this is
        the paper's asynchronous multicast — a node that has not yet seen
        commit T simply cannot serve still-valid claims at T (its watermark
        caps ``effective_interval``), so consistency never depends on
        delivery happening inside the commit critical section.
        """
        if self.invalidation_bus.synchronous:
            self.invalidation_bus.deliver_pending()

    def wallclock_of(self, timestamp: int) -> float:
        """Wall-clock time at which ``timestamp`` committed.

        :class:`SnapshotTooOldError` if there is no such commit on record:
        none ever was, or vacuum has moved past it.
        """
        with self.commit_lock:  # a committer appends to both columns
            timestamps = self._commit_timestamps
            index = bisect_left(timestamps, timestamp)
            if index < len(timestamps) and timestamps[index] == timestamp:
                return self._commit_wallclocks[index]
        raise SnapshotTooOldError(f"no commit record for timestamp {timestamp}")

    def newest_timestamp_at_or_before(self, wallclock: float) -> int:
        """Newest commit timestamp whose commit time is <= ``wallclock``.

        Used to translate a wall-clock staleness horizon (e.g. "30 seconds
        ago") into a logical timestamp, for example when eagerly evicting
        cache entries too stale to satisfy any transaction.

        One bisection of the commit wall clocks, which ascend with the
        timestamps beside them.  The answer is 0 when every commit on record
        is later than ``wallclock`` — before the first commit, and also once
        vacuum has dropped the commits that old: it keeps the newest commit
        below the oldest pinned snapshot and nothing before it.  An answer
        that is too low is safe for its one use: eager eviction waits for
        the horizon to reach a commit still on record.
        """
        with self.commit_lock:  # a committer appends to both columns
            index = bisect_right(self._commit_wallclocks, wallclock)
            return self._commit_timestamps[index - 1] if index else 0

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin_rw(self) -> ReadWriteTransaction:
        """Start a read/write transaction on the latest snapshot."""
        with self.commit_lock:  # counters are read-modify-writes too
            self.stats.rw_transactions += 1
        return ReadWriteTransaction(self, self.latest_timestamp, next_uncommitted_mark_id())

    def begin_ro(self, snapshot_id: Optional[int] = None) -> ReadOnlyTransaction:
        """Start a read-only transaction.

        With ``snapshot_id`` the transaction runs at that (pinned) snapshot,
        mirroring ``BEGIN SNAPSHOTID``; otherwise it runs at the latest
        committed state.
        """
        if snapshot_id is None:
            snapshot_id = self.latest_timestamp
        else:
            if snapshot_id > self.latest_timestamp:
                raise SnapshotTooOldError(
                    f"snapshot {snapshot_id} is in the future (latest is {self._last_committed})"
                )
            if snapshot_id < self._oldest_available:
                raise SnapshotTooOldError(
                    f"snapshot {snapshot_id} has been vacuumed "
                    f"(oldest available is {self._oldest_available})"
                )
        return ReadOnlyTransaction(self, snapshot_id)

    # ------------------------------------------------------------------
    # Snapshot pinning (PIN / UNPIN)
    # ------------------------------------------------------------------
    def pin_latest(self) -> int:
        """Pin the latest snapshot and return its id (the latest commit ts)."""
        with self.commit_lock:
            snapshot_id = self._last_committed
            self._pins[snapshot_id] = self._pins.get(snapshot_id, 0) + 1
            self.stats.pins += 1
            return snapshot_id

    def unpin(self, snapshot_id: int) -> None:
        """Release one pin on ``snapshot_id``."""
        with self.commit_lock:
            count = self._pins.get(snapshot_id, 0)
            if count <= 1:
                self._pins.pop(snapshot_id, None)
            else:
                self._pins[snapshot_id] = count - 1
            self.stats.unpins += 1

    @property
    def pinned_snapshots(self) -> Dict[int, int]:
        """Mapping of pinned snapshot id to pin count."""
        return dict(self._pins)

    def is_pinned(self, snapshot_id: int) -> bool:
        """True if ``snapshot_id`` currently has at least one pin."""
        return snapshot_id in self._pins

    @property
    def oldest_available_snapshot(self) -> int:
        """Oldest snapshot timestamp guaranteed to still be readable."""
        return self._oldest_available

    # ------------------------------------------------------------------
    # Vacuum
    # ------------------------------------------------------------------
    def vacuum(self) -> int:
        """Reclaim tuple versions invisible to every retained snapshot.

        The horizon is the oldest pinned snapshot (or the latest timestamp if
        nothing is pinned); any version superseded at or before the horizon
        can no longer be seen and is physically removed.  Returns the number
        of versions removed.
        """
        from repro.db.vacuum import vacuum_database

        with self.commit_lock:
            removed, horizon = vacuum_database(self)
            self._oldest_available = horizon
            # Snapshots below the horizon can no longer be opened, so nobody
            # will ask when they committed — except of the newest of them,
            # which is the staleness horizon for every wall clock between
            # its commit and the next.
            forgotten = bisect_left(self._commit_timestamps, horizon) - 1
            if forgotten > 0:
                del self._commit_timestamps[:forgotten]
                del self._commit_wallclocks[:forgotten]
            self.stats.vacuum_runs += 1
            self.stats.versions_vacuumed += removed
            return removed
