"""Read/write and read-only transactions.

Read/write transactions implement snapshot isolation over the no-overwrite
storage: reads see the snapshot taken at ``BEGIN`` (plus the transaction's
own uncommitted writes), writes create provisional tuple versions that are
stamped with the commit timestamp at ``COMMIT``, and write-write conflicts
follow the first-committer-wins rule.  At commit the transaction's
invalidation tags are collected — one per index each modified tuple appears
in — and handed to the database for publication on the invalidation stream.

Read-only transactions simply run the executor against a (possibly pinned,
possibly stale) snapshot timestamp; they are what TxCache's library uses via
``BEGIN SNAPSHOTID`` when a cache miss forces it to query the database at the
same point in time as previously observed cached values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Set, Tuple

from repro.db.errors import SerializationError, TransactionStateError
from repro.db.invalidation import InvalidationTag, collapse_tags, tags_for_modified_tuple
from repro.db.query import Predicate, Query
from repro.db.executor import QueryResult
from repro.db.tuples import TupleVersion, UncommittedMark

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["ReadWriteTransaction", "ReadOnlyTransaction"]


class _BaseTransaction:
    """State shared by both transaction kinds."""

    def __init__(self, database: "Database", snapshot_ts: int) -> None:
        self._db = database
        self.snapshot_timestamp = snapshot_ts
        self._finished = False

    @property
    def active(self) -> bool:
        """True until the transaction commits or aborts."""
        return not self._finished

    def _check_active(self) -> None:
        if self._finished:
            raise TransactionStateError("transaction already finished")


class ReadOnlyTransaction(_BaseTransaction):
    """A read-only transaction running at a fixed snapshot timestamp."""

    def __init__(self, database: "Database", snapshot_ts: int) -> None:
        super().__init__(database, snapshot_ts)
        with database.commit_lock:  # counters are read-modify-writes too
            database.stats.ro_transactions += 1

    def query(self, query: Query) -> QueryResult:
        """Execute a query at this transaction's snapshot."""
        self._check_active()
        return self._db.executor.execute(query, self.snapshot_timestamp, tx_id=None)

    def commit(self) -> int:
        """Finish the transaction; returns its snapshot timestamp."""
        self._check_active()
        self._finished = True
        return self.snapshot_timestamp

    def abort(self) -> None:
        """Abort (identical to commit for a read-only transaction)."""
        self._check_active()
        self._finished = True


class ReadWriteTransaction(_BaseTransaction):
    """A read/write transaction with buffered (provisional) writes."""

    def __init__(self, database: "Database", snapshot_ts: int, tx_id: int) -> None:
        super().__init__(database, snapshot_ts)
        self.tx_id = tx_id
        self._mark = UncommittedMark(tx_id)
        #: versions created by this transaction: (table name, version)
        self._created: List[Tuple[str, TupleVersion]] = []
        #: versions whose xmax this transaction set: (table name, version)
        self._deleted: List[Tuple[str, TupleVersion]] = []

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def query(self, query: Query) -> QueryResult:
        """Execute a query; sees this transaction's own uncommitted writes."""
        self._check_active()
        return self._db.executor.execute(query, self.snapshot_timestamp, tx_id=self.tx_id)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, table_name: str, values: Dict[str, Any]) -> TupleVersion:
        """Insert a new row; returns its provisional version."""
        self._check_active()
        table = self._db.table(table_name)
        version = table.add_version(values, xmin=self._mark)
        self._created.append((table_name, version))
        return version

    def update(
        self,
        table_name: str,
        predicate: Predicate,
        changes: Dict[str, Any],
    ) -> int:
        """Update every visible row matching ``predicate``.

        Each update supersedes the old version (its ``xmax`` becomes this
        transaction's mark) and creates a new version: the old one's values
        with ``changes`` put in place.
        Returns the number of rows updated.
        """
        self._check_active()
        table = self._db.table(table_name)
        targets = self._visible_matching(table_name, predicate)
        for old in targets:
            self._claim_for_write(old)
            try:
                new_version = table.add_version(changes, xmin=self._mark, prior=old)
            except BaseException:
                old.xmax = None  # a refused new version leaves the row unclaimed
                raise
            self._created.append((table_name, new_version))
            self._deleted.append((table_name, old))
        return len(targets)

    def delete(self, table_name: str, predicate: Predicate) -> int:
        """Delete every visible row matching ``predicate``; returns the count."""
        self._check_active()
        targets = self._visible_matching(table_name, predicate)
        for old in targets:
            self._claim_for_write(old)
            self._deleted.append((table_name, old))
        return len(targets)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Commit: stamp provisional versions and publish invalidations.

        Returns the commit timestamp.  A first-committer-wins conflict is
        refused at write time, when :meth:`_claim_for_write` claims the row,
        so commit raises no :class:`SerializationError`.
        """
        self._check_active()
        if not self._created and not self._deleted:
            # A read-only "read/write" transaction: nothing to stamp, no
            # commit timestamp consumed, no invalidation published.
            self._finished = True
            with self._db.commit_lock:
                self._db.stats.commits += 1
            return self._db.latest_timestamp

        # The critical section — timestamp allocation, version stamping,
        # invalidation *enqueue* — runs under the database's commit lock, so
        # concurrent committers cannot interleave: the stream sees whole
        # commits in timestamp order, and no reader at timestamp T can
        # observe some of commit T's versions stamped and others not.
        with self._db.commit_lock:
            timestamp = self._db.allocate_commit_timestamp()
            for _table_name, version in self._created:
                version.xmin = timestamp
            superseded = self._db.superseded
            for table_name, version in self._deleted:
                version.xmax = timestamp
                superseded.append((self._db.table(table_name), version))

            tags = self._collect_tags()
            self._finished = True
            self._db.register_commit(timestamp, tags)
        # Delivery happens outside the lock: it can block on networked cache
        # nodes (up to the transport timeout for a hung one), and readers
        # queued on the commit lock must not pay for that.
        self._db.deliver_invalidations()
        return timestamp

    def abort(self) -> None:
        """Abort: physically discard provisional versions."""
        self._check_active()
        for table_name, version in self._created:
            self._db.table(table_name).remove_version(version)
        for _table_name, version in self._deleted:
            if isinstance(version.xmax, UncommittedMark) and version.xmax.tx_id == self.tx_id:
                version.xmax = None
        self._finished = True
        with self._db.commit_lock:
            self._db.stats.aborts += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _visible_matching(self, table_name: str, predicate: Predicate) -> List[TupleVersion]:
        """The versions an UPDATE/DELETE targets: the executor's own scan,
        at this transaction's snapshot and seeing its own writes."""
        return self._db.executor.visible_versions(
            self._db.table(table_name), predicate, self.snapshot_timestamp, self.tx_id
        )

    def _claim_for_write(self, version: TupleVersion) -> None:
        """Mark ``version`` superseded by this transaction, detecting conflicts.

        Check and mark are one step under the commit lock, which every claim
        and commit holds: two writers must not both find ``xmax`` empty."""
        with self._db.commit_lock:
            xmax = version.xmax
            if isinstance(xmax, UncommittedMark):
                if xmax.tx_id != self.tx_id:
                    raise SerializationError(
                        f"row {version.row_id} is being modified by transaction {xmax.tx_id}"
                    )
                return
            if xmax is not None:
                # Deleted by a transaction that committed after our snapshot.
                raise SerializationError(
                    f"row {version.row_id} was modified by a concurrent transaction"
                )
            if isinstance(version.xmin, int) and version.xmin > self.snapshot_timestamp:
                raise SerializationError(
                    f"row {version.row_id} was created after this transaction's snapshot"
                )
            version.xmax = self._mark

    def _collect_tags(self) -> frozenset:
        tags: Set[InvalidationTag] = set()
        for table_name, version in self._created + self._deleted:
            tags.update(
                tags_for_modified_tuple(
                    table_name, self._db.table(table_name).indexed_positions, version.values
                )
            )
        return collapse_tags(tags)
