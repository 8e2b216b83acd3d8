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
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.clock import Clock, SystemClock

__all__ = ["PinnedSnapshot", "Pincushion", "PincushionStats"]


@dataclass
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
        self._snapshots: Dict[int, PinnedSnapshot] = {}
        self.stats = PincushionStats()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def fresh_snapshots(self, staleness: float, mark_in_use: bool = True) -> List[PinnedSnapshot]:
        """Return every pinned snapshot within ``staleness`` seconds of now.

        When ``mark_in_use`` is True (the normal path at transaction BEGIN)
        each returned snapshot's in-use count is incremented; the caller must
        balance it with :meth:`release` when the transaction finishes.
        """
        with self._lock:
            self.stats.fresh_requests += 1
            cutoff = self.clock.now() - staleness
            fresh = [
                snapshot
                for snapshot in self._snapshots.values()
                if snapshot.wallclock >= cutoff
            ]
            fresh.sort(key=lambda snapshot: snapshot.snapshot_id)
            if mark_in_use:
                for snapshot in fresh:
                    snapshot.in_use += 1
            return fresh

    def snapshot(self, snapshot_id: int) -> Optional[PinnedSnapshot]:
        """Return the pinned snapshot with the given id, if registered."""
        with self._lock:
            return self._snapshots.get(snapshot_id)

    @property
    def pinned_ids(self) -> List[int]:
        """Ids of every registered snapshot, ascending."""
        with self._lock:
            return sorted(self._snapshots)

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

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
        """
        with self._lock:
            self.stats.registrations += 1
            existing = self._snapshots.get(snapshot_id)
            if existing is not None:
                existing.wallclock = max(existing.wallclock, wallclock)
                if in_use:
                    existing.in_use += 1
                return False
            self._snapshots[snapshot_id] = PinnedSnapshot(
                snapshot_id=snapshot_id, wallclock=wallclock, in_use=1 if in_use else 0
            )
            return True

    def release(self, snapshot_ids: List[int]) -> None:
        """Drop the in-use marks a finishing transaction held."""
        with self._lock:
            self.stats.releases += 1
            for snapshot_id in snapshot_ids:
                snapshot = self._snapshots.get(snapshot_id)
                if snapshot is not None and snapshot.in_use > 0:
                    snapshot.in_use -= 1

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
            expired: List[int] = []
            for snapshot_id, snapshot in list(self._snapshots.items()):
                if snapshot.in_use == 0 and snapshot.wallclock < cutoff:
                    del self._snapshots[snapshot_id]
                    expired.append(snapshot_id)
                    self.stats.expirations += 1
                    if self._unpin_callback is not None:
                        self._unpin_callback(snapshot_id)
            return expired
