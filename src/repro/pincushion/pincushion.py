"""The pincushion daemon (paper section 5.4).

TxCache needs to know which snapshots are pinned on the database and which of
them fall within a read-only transaction's staleness limit, and it must
eventually unpin snapshots that are no longer needed.  Rather than burdening
the database, the paper places this bookkeeping in a lightweight daemon, the
*pincushion*.

The pincushion keeps a table of pinned snapshots: the snapshot id (which is a
commit timestamp), the latest wall-clock time at which it was seen to be the
database's current state, and the number of running transactions that might
be using it.  Each row stands for exactly one pin on the database, taken by
the library instance that registered the row and dropped by the expiry sweep.
Read-only transactions ask it for all sufficiently fresh pinned snapshots at
BEGIN and release them at COMMIT/ABORT; a periodic sweep unpins snapshots
that are old and unused.

Thread safety
-------------
:class:`Pincushion` is thread-safe: one lock serializes every operation, so
many application-server threads may BEGIN/COMMIT concurrently.  The paper's
pincushion is a single daemon serving all application servers, which makes
it exactly this kind of shared, contended structure; the lock keeps the
in-use reference counts exact (a lost update there would either expire a
snapshot still in use or pin one forever).  The expiry sweep invokes the
``unpin_callback`` while holding the lock; the database's pin bookkeeping
takes its own lock, and no database path calls back into the pincushion, so
the lock order pincushion -> database is acyclic.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.clock import Clock, SystemClock

__all__ = ["PinnedSnapshot", "Pincushion", "PincushionStats"]


@dataclass(**DATACLASS_SLOTS)
class PinnedSnapshot:
    """One row of the pincushion's table."""

    snapshot_id: int
    wallclock: float
    in_use: int = 0


@dataclass
class PincushionStats:
    """Counters describing pincushion traffic."""

    fresh_requests: int = 0
    registrations: int = 0
    releases: int = 0
    expirations: int = 0


class Pincushion:
    """In-process reproduction of the pincushion daemon.

    ``unpin_callback`` is invoked with a snapshot id when the pincushion
    decides to expire it; the TxCache deployment wires this to
    ``Database.unpin`` so the database can eventually vacuum old versions.

    The table is kept in snapshot-id order where it is written
    (:meth:`register`), which is also the order a BEGIN wants its pins in,
    and beside each row sits the latest wall clock of any row up to it.
    Ids and wall clocks both rise with time, so that column is normally the
    rows' own wall clocks and the fresh pins are the table's tail: a BEGIN
    finds where the tail starts by bisection and never looks at a stale row.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        unpin_callback: Optional[Callable[[int], None]] = None,
        expiry_seconds: float = 60.0,
    ) -> None:
        self.clock = clock or SystemClock()
        self._unpin_callback = unpin_callback
        self.expiry_seconds = expiry_seconds
        #: Serializes every operation (see "Thread safety" above).
        self._lock = threading.Lock()
        #: The table, ascending by snapshot id; ``_ids`` is its key column.
        self._rows: List[PinnedSnapshot] = []
        self._ids: List[int] = []
        #: ``_seen_through[i]``: the latest wall clock among rows ``0..i``
        #: (non-decreasing, so a cutoff is located by bisection; no row
        #: before the first one that reaches the cutoff can be fresh).
        self._seen_through: List[float] = []
        self.stats = PincushionStats()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def fresh_snapshots(self, staleness: float, mark_in_use: bool = True) -> List[PinnedSnapshot]:
        """Return every pinned snapshot within ``staleness`` seconds of now.

        Ascending by snapshot id.  When ``mark_in_use`` is True (the normal
        path at transaction BEGIN) each returned snapshot's in-use count is
        incremented; the caller must balance it by handing the same rows to
        :meth:`release` when the transaction finishes.

        The cost is the rows returned: the table is already in id order, and
        the rows before the first position whose ``_seen_through`` reaches
        the cutoff are skipped unread.  Rows registered out of wall-clock
        order can leave stale ones among the rest, hence the filter.
        """
        with self._lock:
            self.stats.fresh_requests += 1
            cutoff = self.clock.now() - staleness
            start = bisect_left(self._seen_through, cutoff)
            fresh = [row for row in self._rows[start:] if row.wallclock >= cutoff]
            if mark_in_use:
                for row in fresh:
                    row.in_use += 1
            return fresh

    def snapshot(self, snapshot_id: int) -> Optional[PinnedSnapshot]:
        """Return the pinned snapshot with the given id, if registered."""
        with self._lock:
            return self._find(snapshot_id)[1]

    @property
    def pinned_ids(self) -> List[int]:
        """Ids of every registered snapshot, ascending."""
        with self._lock:
            return list(self._ids)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    # ------------------------------------------------------------------
    # Registration and release
    # ------------------------------------------------------------------
    def register(self, snapshot_id: int, wallclock: float, in_use: bool = True) -> bool:
        """Record a snapshot a library instance just pinned; True if it is new.

        ``wallclock`` is when the caller saw the snapshot to be the
        database's latest, i.e. a moment at which it *was current* — not the
        time of its commit, which would make the only snapshot of a quiet
        spell look too old to every transaction.

        A pincushion entry holds exactly one database pin.  If the snapshot
        is already registered the answer is False and the caller must drop
        the pin it took to get here: seeing it again only moves its wall
        clock forward (and marks it in use), so a snapshot that stays the
        latest is refreshed, never pinned twice.

        A new snapshot is normally the newest and is appended; one older
        than a registered snapshot is inserted at its place, so the table
        never needs sorting.
        """
        with self._lock:
            self.stats.registrations += 1
            index, row = self._find(snapshot_id)
            if row is not None:
                if wallclock > row.wallclock:
                    row.wallclock = wallclock
                if in_use:
                    row.in_use += 1
                created = False
            else:
                self._ids.insert(index, snapshot_id)
                self._rows.insert(
                    index, PinnedSnapshot(snapshot_id, wallclock, 1 if in_use else 0)
                )
                self._seen_through.insert(index, wallclock)
                created = True
            self._reseal_from(index)
            return created

    def release(self, snapshots: Sequence[PinnedSnapshot]) -> None:
        """Drop the in-use marks a finishing transaction held.

        ``snapshots`` are rows of the table — what :meth:`fresh_snapshots`
        returned, or :meth:`snapshot` for a pin taken by :meth:`register` —
        so a COMMIT costs one decrement per pin it held and looks nothing
        up.  A row in use is never expired, so a held row is still the
        table's.
        """
        with self._lock:
            self.stats.releases += 1
            for row in snapshots:
                if row.in_use > 0:
                    row.in_use -= 1

    # ------------------------------------------------------------------
    # Expiry sweep
    # ------------------------------------------------------------------
    def expire_old_snapshots(self, older_than: Optional[float] = None) -> List[int]:
        """Unpin unused snapshots older than the threshold.

        Returns the ids that were expired.  A snapshot still marked in-use is
        never expired regardless of age.
        """
        with self._lock:
            threshold = self.expiry_seconds if older_than is None else older_than
            cutoff = self.clock.now() - threshold
            rows, ids, seen_through = self._rows, self._ids, self._seen_through
            expired: List[int] = []
            index = 0
            while index < len(rows):
                row = rows[index]
                if row.in_use == 0 and row.wallclock < cutoff:
                    del rows[index], ids[index], seen_through[index]
                    expired.append(row.snapshot_id)
                    self.stats.expirations += 1
                    if self._unpin_callback is not None:
                        self._unpin_callback(row.snapshot_id)
                else:
                    index += 1
            if expired:
                self._reseal_from(0)
            return expired

    def _find(self, snapshot_id: int) -> Tuple[int, Optional[PinnedSnapshot]]:
        """Where ``snapshot_id`` is or belongs in the table, and its row if
        it is registered."""
        index = bisect_left(self._ids, snapshot_id)
        if index < len(self._ids) and self._ids[index] == snapshot_id:
            return index, self._rows[index]
        return index, None

    def _reseal_from(self, index: int) -> None:
        """Restore ``_seen_through`` from ``index`` on, after a row there
        was added or refreshed (the newest row, unless ids arrive out of
        order: one step)."""
        rows, seen_through = self._rows, self._seen_through
        latest = seen_through[index - 1] if index else float("-inf")
        for position in range(index, len(rows)):
            wallclock = rows[position].wallclock
            if wallclock > latest:
                latest = wallclock
            seen_through[position] = latest
